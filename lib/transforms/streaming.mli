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
  Minic.Ast.program * int
(** Stream every offloaded region that passes the legality check;
    returns the count transformed.  Name clashes are judged against the
    names of the input program, so a program with two streamable
    regions streams both. *)

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
