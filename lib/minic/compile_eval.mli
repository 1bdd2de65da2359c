(** Compile-to-closures evaluator for MiniC.

    One pass over the AST resolves every variable occurrence to an
    integer slot in a per-activation binding array, binds calls to the
    target function's compiled closure, precomputes struct field
    offsets and section element sizes, and specializes operator
    dispatch — then running the program is pure closure invocation.

    Observationally identical to {!Interp}: same output, return value,
    globals snapshot, stats, event trace, fuel accounting (identical
    [Timeout] points), and the same runtime error messages raised at
    the same evaluation points, so {!Check} and [Runtime.Replay]
    consume its outcomes unchanged.  The engine-equivalence test suite
    and the [@perf] alias enforce this. *)

type compiled
(** A compiled program, ready to execute any number of times. *)

val compile : Ast.program -> compiled
(** Compile without caching.  Static resolution failures (unbound
    variables, unknown structs, bad clauses) do not fail here: they
    compile to code that raises the reference interpreter's error at
    the same evaluation point. *)

val exec : ?fuel:int -> compiled -> (Interp.outcome, string) result
(** Execute a compiled program; [fuel] as in {!Interp.run}. *)

val run_compiled :
  ?fuel:int -> Ast.program -> (Interp.outcome, string) result
(** Compile (through the per-domain cache) and execute. *)

val run_profiled :
  ?fuel:int ->
  Ast.program ->
  (Interp.outcome * Interp.detail list, string) result
(** {!run_compiled} with {!Interp.run_profiled}'s per-event profile:
    the same outcome and the same details as the reference engine.
    The program compiles through the same cache, and one compiled
    program serves both kinds of run: the [for] beneath a kernel's
    [omp] pragmas picks, at its entry, a driver that records its first
    index and each iteration's fuel, in a profiled run only.  Any other
    loop, and that loop in an unprofiled run, runs the driver it always
    ran. *)

val run :
  ?engine:Interp.engine ->
  ?fuel:int ->
  Ast.program ->
  (Interp.outcome, string) result
(** Engine-dispatched execution: [Reference] delegates to
    {!Interp.run}, [Compiled] (the default) to {!run_compiled}. *)

val compile_count : unit -> int
(** Number of cache-miss compilations performed by the calling domain
    since it started.  The cache, like [Transforms.Util.fresh], is
    domain-local state, so the domain pool never contends on it; pool
    helpers persist, so on a helper both the count and the cached
    programs carry over from one [Parallel.run] call to the next.
    {!compile} bypasses the cache and is not counted. *)

(** Request-shared front-end cache, keyed by raw source text.

    Unlike the per-domain AST cache, this one is mutex-guarded and
    meant to be shared by every request of a long-running service:
    each distinct source is parsed, typechecked and compiled exactly
    once while its entry stays resident, and front-end failures are
    cached too.  Bounded: when full the table resets (same policy as
    the per-domain cache), after which previously-seen sources miss
    once again. *)
module Source_cache : sig
  type error =
    | Parse_error of string
    | Type_error of string
        (** Typed front-end failure — a daemon maps these to protocol
            error codes instead of crashing on bad input. *)

  type t

  val create : ?limit:int -> unit -> t

  val get : t -> string -> (Ast.program * compiled, error) result
  (** Cached parse + typecheck + compile of one source.  The returned
      [compiled] is reentrant and safe to execute from any domain. *)

  val hits : t -> int
  val misses : t -> int
  (** Monotonic lookup counters, for the service's [cache.hit]/
      [cache.miss] observability. *)
end
