(** Persistent domain pool for embarrassingly parallel sweeps.

    Every sweep surface (the [bench] registry sweeps, [compc check
    --runs N], the fault grids, the tuner's batches, the serve
    dispatcher) is a list of independent tasks whose results are
    printed in submission order.  This module runs such a list on
    OCaml 5 domains while keeping the output {e bit-identical} to the
    sequential run:

    - tasks are indexed at submission; results land in a slot per
      index and are returned in submission order, whatever the
      completion order;
    - [jobs = 1] executes inline on the calling domain — no helper is
      involved, so it is byte-for-byte the sequential run;
    - a task exception is captured per slot and re-raised on the
      calling domain for the {e lowest} failing index, so the failure
      a caller observes does not depend on scheduling either.

    The calling domain runs tasks too.  Helper domains are spawned the
    first time a call needs more than exist, park between calls, and
    are reused by every later call from any domain; they are never
    joined and never exit.  Consequences for tasks:

    - {!Domain.DLS} state a task leaves on a helper outlives the call
      (the per-domain compile cache of [Minic.Compile_eval], for one),
      so per-call state must be reset by the task that relies on it;
    - tasks must not print, and must not rely on [Domain.at_exit];
    - while helpers exist, [Unix.fork] is refused by the OCaml 5
      runtime.

    Tasks must not share mutable state; give each task its own
    {!Obs.t} sink and merge the sinks in submission order afterwards
    ({!Obs.merge} preserves the sequential profile exactly). *)

val default_jobs : unit -> int
(** Pool width when the caller gives none: [COMP_JOBS] if set to a
    positive integer, else [Domain.recommended_domain_count ()]. *)

val jobs_of : int option -> int
(** [jobs_of (Some n)] is [n] clamped to at least 1; [jobs_of None] is
    {!default_jobs}[ ()]. *)

val run : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [run ~jobs n f] computes [[f 0; f 1; ...; f (n-1)]] on the calling
    domain plus at most [min jobs n - 1] helpers, and returns the
    results in index order.  Fewer helpers take part when the others
    are busy, or when the runtime refuses to spawn more domains; the
    caller can always finish the job alone, so nested and concurrent
    calls cannot deadlock.  If any task raised, the exception of the
    lowest failing index is re-raised after every task has
    finished. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] with the applications run on
    the pool; result order follows [xs]. *)

val derive_seed : root:int -> int -> int
(** Per-task seed for task [index], by a splitmix64 finalizer over
    [(root, index)].  The derivation depends only on [root] and the
    task index — never on the pool width — so [--jobs] cannot change
    which seeds (and hence which generated programs) a sweep tests.
    The result is non-negative and fits in 62 bits. *)
