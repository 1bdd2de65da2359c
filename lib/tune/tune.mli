(** Auto-tuned offload configuration search over heterogeneous device
    fleets.

    Searches the per-workload (devices, streams, nblocks) space for
    the makespan-optimal point, costing every candidate by replaying
    the workload's event trace through {!Runtime.Migrate} on the
    candidate machine.  Small grids are enumerated exhaustively; large
    ones run a seeded coordinate descent.  Evaluations fan out over
    {!Parallel} and merge in submission order, and ties break by
    lexicographic config order — the winner is bit-identical at any
    [--jobs] width.  A memo table plus the optional cross-search
    {!Cache} guarantee no visited point is ever re-simulated; both are
    keyed by integers, computed once per config.

    Counters: [tune.explored] / [tune.pruned] for search traffic,
    [tune.cache.hits] / [tune.cache.misses] for the shared cache. *)

type config = { devices : int; streams : int; nblocks : int }

val compare_config : config -> config -> int
(** Lexicographic on (devices, streams, nblocks) — the tie-break
    order. *)

val config_to_string : config -> string
(** ["devices=D,streams=S,nblocks=N"]. *)

val default_config : config
(** The baseline every speedup is measured against: one device, one
    stream, {!Comp.default_nblocks}. *)

type space = {
  sp_devices : int list;
  sp_streams : int list;
  sp_nblocks : int list;
}

val default_nblocks_candidates : int list

val space :
  ?nblocks:int list -> max_devices:int -> max_streams:int -> unit -> space
(** Devices [1..max_devices] x streams [1..max_streams] x the block
    counts (clamped into [1, ]{!Transforms.Block_size.max_blocks}[]];
    {!Comp.default_nblocks} always joins so the tuned point can never
    lose to the default). *)

type mode =
  | Auto  (** {!Exhaustive} for small grids, {!Hill} beyond *)
  | Exhaustive
  | Hill

(** Cross-search memo of simulator evaluations, keyed (workload and
    machine, trace).  Distinct from the serve [Source_cache], which
    memoizes front-end {e compilation} keyed by source text. *)
module Cache : sig
  type t

  type key = string * int
  (** A search's [cache_prefix] and a [keyfn] key. *)

  val create : ?obs:Obs.t -> unit -> t
  val find : t -> key -> float option
  val add : t -> key -> float -> unit
  val size : t -> int
end

type point = { pt_config : config; pt_makespan : float }

type report = {
  r_default : point;
  r_best : point;
  r_explored : int;  (** simulator evaluations actually run *)
  r_pruned : int;  (** candidates answered without simulation *)
  r_points : point list;  (** every evaluated point, in config order *)
}

val speedup : report -> float
(** [default / best] makespan; [1.0] for degenerate zero-makespan
    traces. *)

val search :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?cache:Cache.t ->
  ?cache_prefix:string ->
  ?mode:mode ->
  ?seeds:config list ->
  space ->
  eval:(config -> float) ->
  keyfn:(config -> int) ->
  report
(** The generic engine.  [eval] must be pure (it runs on pool
    domains); [keyfn] names the simulation a config denotes — configs
    sharing a key share one evaluation.  It runs once per config per
    batch, and {!Cache} entries are keyed [(cache_prefix, keyfn c)].
    {!default_config} is always evaluated. *)

(** {1 Workload glue} *)

type prepared = {
  p_name : string;
  p_base : Machine.Config.t;
      (** devices/streams overridden per candidate; scales and fault
          plan ride along *)
  p_space : space;
  p_traces : Minic.Interp.event list array;
  p_trace_of_nblocks : (int * int) list;  (** nblocks -> trace index *)
  p_seed_nblocks : int;
      (** analytic {!Transforms.Block_size} seed for the hill search *)
}

val prepare_program :
  ?base:Machine.Config.t ->
  ?nblocks:int list ->
  ?obs:Obs.t ->
  ?block_cache:Transforms.Block_size.Cache.cache ->
  max_devices:int ->
  max_streams:int ->
  name:string ->
  Minic.Ast.program ->
  (prepared, string) result
(** Lower the program once, at {!Comp.default_nblocks}.  If no data
    streaming site applied, every candidate block count maps to that
    one program, because streaming is the only pass that reads the
    count, and it runs once.  Otherwise each other candidate's program
    is that lowering re-blocked with {!Transforms.Streaming.reblock},
    which equals lowering it at that count; the candidates are
    distinct, so trace [i] is candidate [i].  Their traces come from
    one profiled run of the lowering re-blocked at
    {!Transforms.Streaming.retrace_nblocks}, which
    {!Transforms.Streaming.retrace} derives every candidate's trace
    from, equal to running it.  Where the derivation refuses, each
    candidate runs, in block-count order.  Either way the result is
    the same, and the analytic block-count seed comes from the default
    trace (via the memoized {!Transforms.Block_size.Cache}).
    [Error msg] is the interpreter's runtime error for the first
    candidate, in block-count order, whose program fails.

    With [obs]: [tune.traces.executed] and [tune.traces.derived]
    count the candidate traces run and derived;
    [tune.retrace.refused.<reason>] counts a refusal, by
    {!Transforms.Streaming.refusal_name}. *)

val prepare :
  ?base:Machine.Config.t ->
  ?nblocks:int list ->
  ?obs:Obs.t ->
  ?block_cache:Transforms.Block_size.Cache.cache ->
  max_devices:int ->
  max_streams:int ->
  Workloads.Workload.t ->
  prepared
(** {!prepare_program} on a registry workload's kernel source.
    Registry kernels always run, so a runtime error raises [Failure]. *)

val run :
  ?jobs:int -> ?obs:Obs.t -> ?cache:Cache.t -> ?mode:mode -> prepared -> report
(** {!search} over the prepared workload, seeded with the analytic
    block count at full fleet width. *)
