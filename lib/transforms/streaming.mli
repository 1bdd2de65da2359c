(** The data-streaming transformation (Section III).

    An offloaded loop whose array indexes are all affine in the loop
    index ([a*i + b], the legality condition) is rewritten into a
    pipelined two-level loop: the outer loop walks computation blocks,
    transferring block [b+1] asynchronously while block [b] computes on
    the device (Figure 5(b)).  With {!Double_buffered} the rewrite
    instead allocates only two block-sized device buffers per streamed
    input (and one per output) and alternates between them —
    Figure 5(c) — which caps the device memory footprint.

    Thread reuse (Section III-C) changes only the execution schedule
    and lives in {!Runtime.Plan}; offload merging is
    {!Merge_offload}.

    {b Reserved names.}  The block that replaces a streamed region
    declares [nblk__], [bsize__] and [blk__], and per array the device
    buffers of either layout: [<a>_mic] for every array, [<a>_mic1] and
    [<a>_mic2] for a streamed input, [<a>_b] for a streamed output.  A
    region whose program already uses one of the names its rewrite
    would declare is refused with {!Name_clash}, since the rewrite
    would rebind that name inside the block.  The check runs after
    every other one, so a region refused for another reason keeps that
    reason. *)

type failure =
  | No_offload_spec
  | Nonunit_step
  | Variant_bounds  (** loop bounds are written in the body *)
  | Non_affine of string
  | Mixed_coeff of string  (** one array, several strides *)
  | Nonconst_offset of string
  | Nonscalar_element of string
      (** struct- or pointer-element array: blockwise device buffers
          would need element-size-aware slicing; AoS data is handled by
          regularization (SoA) first, pointer data by the shared-memory
          lowering *)
  | Invariant_out of string
  | No_streamed_input
  | Unknown_function of string
  | Name_clash of string
      (** the program already uses this name, which the rewrite would
          declare (see {e Reserved names} above) *)

val pp_failure : Format.formatter -> failure -> unit

type role = Rin | Rout | Rinout

type arr_info = {
  name : string;
  role : role;
  coeff : int;  (** 0 = loop-invariant: transferred whole, up-front *)
  min_off : int;
  max_off : int;  (** constant-offset halo, for stencil slices *)
  total : Minic.Ast.expr;  (** element count of the original clause *)
  elem : Minic.Ast.ty;
}

type info = {
  region : Analysis.Offload_regions.region;
  spec : Minic.Ast.offload_spec;
  arrays : arr_info list;
  nblocks : int;
}

type memory = Full | Double_buffered

val analyze :
  ?nblocks:int ->
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (info, failure) result
(** The legality check plus per-array slicing information. *)

val applicable : Minic.Ast.program -> Analysis.Offload_regions.region -> bool

val transform :
  ?nblocks:int ->
  ?memory:memory ->
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (Minic.Ast.program, failure) result
(** Rewrite one region.  The result is valid, typecheckable MiniC that
    computes the same outputs (property-tested). *)

val transform_all :
  ?nblocks:int ->
  ?memory:memory ->
  Minic.Ast.program ->
  Minic.Ast.program * info list
(** Stream every offloaded region that passes the legality check;
    returns the analysis of each region transformed, in program order.
    Name clashes are judged against the names of the input program, so
    a program with two streamable regions streams both. *)

val reblock : nblocks:int -> Minic.Ast.program -> Minic.Ast.program
(** Set the block count of every streamed region of a program to
    [nblocks], by rewriting the [int nblk__ = N;] declarations the
    rewrite emitted; the block count is read nowhere else.

    Contract: for every program [p] whose lowering streamed at least
    one region, every memory layout, and every [m, n >= 1],
    [reblock ~nblocks:n (fst (Comp.optimize ~nblocks:m p))] is
    AST-equal to [fst (Comp.optimize ~nblocks:n p)].  It is exact
    because a program that already uses [nblk__] is never streamed
    ({!Name_clash}), so every [nblk__] declaration of a streamed
    program is one streaming emitted.  On a program that declares its
    own [nblk__] and was not streamed, [reblock] would rewrite the
    program's own variable: call it only on programs streaming
    rewrote. *)

(** {1 Re-tracing}

    The lowerings at different block counts differ only in how each
    streamed region cuts its iteration space into blocks, so one run,
    at {!retrace_nblocks} blocks with the per-event profile
    ({!Minic.Compile_eval.run_profiled}), determines the event trace
    and the fuel of every other count by arithmetic — the paper prices
    a block count the same way, from one region's transfer and compute
    (Section III).  An instance of a streamed region is recognised by
    its signal-0 transfer, whose sections are that region's streamed
    inputs, followed by the fixed 4-block pattern; from it the
    derivation reads the loop's first index, each iteration's fuel, the
    kernel's fixed work, the host work of one block, and where each
    streamed array's slices end.  Everything outside the instances is
    the same at every count. *)

val retrace_nblocks : int
(** 4: the count the derivation runs.  At 4 blocks, blocks 1 and 2
    both prefetch and differ in parity, so the run shows the host work
    of a block twice. *)

(** Why the derivation cannot vouch for a count, in which case the
    caller runs every count instead. *)
type refusal =
  | Run_failed of string
      (** the run at {!retrace_nblocks} failed or ran out of fuel *)
  | Ambiguous_region of string list
      (** two streamed regions stream the same inputs but slice them
          differently, so an instance cannot tell which it is *)
  | Unrecognised of string
      (** an instance's events do not follow the pattern, its blocks'
          fixed or host work differ, a streamed loop writes its own
          index, or the self-check failed: the model does not reproduce
          the profiled run *)
  | Empty_iterations  (** an instance has no iterations *)
  | Unobservable_end of string
      (** the run leaves open where this array's slices end, and some
          count's slices would depend on it *)
  | Fuel_exhausted of int
      (** the run at this count would run out of fuel *)

val refusal_name : refusal -> string
(** A short tag per constructor, for counters: [run_failed],
    [ambiguous], [unrecognised], [empty], [unobservable_end], [fuel]. *)

val pp_refusal : Format.formatter -> refusal -> unit

type retraced = {
  rt_nblocks : int;
  rt_events : Minic.Interp.event list;
  rt_work : int;  (** total fuel of the run *)
}

val derive :
  ?fuel:int ->
  info list ->
  Minic.Interp.outcome ->
  Minic.Interp.detail list ->
  nblocks:int list ->
  (retraced list, refusal) result
(** The arithmetic half of {!retrace}: the traces of [nblocks] from
    the outcome and details of a profiled run of
    [reblock ~nblocks:]{!retrace_nblocks} on the lowering whose
    streamed regions are [infos].  [fuel] is the budget that run had,
    and every count would have.  Every refusal but {!Run_failed} comes
    from here.  Raises [Invalid_argument] on a count below 1, or when
    the details do not match the events one for one. *)

val retrace :
  ?fuel:int ->
  info list ->
  Minic.Ast.program ->
  nblocks:int list ->
  (retraced list, refusal) result
(** [retrace infos lowered ~nblocks] runs
    [reblock ~nblocks:]{!retrace_nblocks}[ lowered] once, under the
    profile and [fuel] (default {!Minic.Interp.default_fuel}), and
    returns the trace of every count of [nblocks], in that order.
    [infos] are the regions streaming rewrote in [lowered]
    ({!transform_all}'s, as {!Comp.optimize} passes them on).  A count
    below 1 raises [Invalid_argument].

    Contract: for every program [p] and every count [n >= 1], if
    [(lowered, a) = Comp.optimize p] and
    [retrace a.streamed_regions lowered ~nblocks:[n]] is
    [Ok [r]], then running [reblock ~nblocks:n lowered] with the same
    [fuel] returns an outcome whose [events] equal [r.rt_events], event
    for event, and whose [work] equals [r.rt_work].  It rests on
    streaming preserving the program's values at every count (the
    property the streaming tests check), so a kernel reads the same
    data, takes the same branches and does the same work per iteration
    whichever block runs it.  Where the run cannot show the rest, the
    result is a typed [Error]: the run failed, an instance is
    ambiguous or breaks the pattern (checked event by event, and by
    re-deriving the profiled count itself), a streamed loop writes its
    own index, an instance has no iterations, a slice end is
    unobservable, or a count would run out of fuel. *)
