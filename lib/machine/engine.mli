(** Discrete-event list scheduler.

    Each resource executes its tasks serially; a task becomes ready
    when all its dependencies have finished; ties break by ready time,
    then by task id (FIFO in construction order).  This is a standard
    non-preemptive list schedule — enough to model the overlap of PCIe
    transfers with device computation that data streaming exploits, and
    the serialization a single DMA channel or the device itself
    imposes. *)

type placed = { task : Task.t; start : float; finish : float }

type result = {
  placed : placed list;  (** in order of completion *)
  makespan : float;
  busy : (Task.resource * float) list;  (** per-resource busy time *)
}

exception Cycle of string

val result_of_placed : placed list -> result
(** Assemble a {!result} from already-placed tasks (in completion
    order): makespan is the latest finish, busy rows cover
    {!Task.base_resources} plus every resource the placements touch.
    For composite schedulers (e.g. block migration) that merge
    placements from several engine runs into one report. *)

val schedule : ?obs:Obs.t -> ?faults:Fault.fleet -> Task.t list -> result
(** Raises {!Cycle} on cyclic dependencies and [Invalid_argument] on
    dangling ones.  With [?obs], every placed task is recorded as one
    span (kind from the task, or {!Task.default_kind} of its resource)
    plus an [engine.tasks] counter and per-kind duration histograms.

    With [?faults], PCIe tasks consult the plan of the device their
    resource belongs to ({!Fault.fleet_plan}): a failed attempt
    retransfers {e only that block} (busy time grows by one block per
    failure) and pays exponential backoff plus any device resets as an
    [Obs.Retry] recovery tail — a synthetic placed entry, so profiles
    show recovery as its own phase.  A kernel crossing its plan's
    [reset@T] loses its progress and reruns after the reset recovery.
    When the degradation policy declares a device dead, the engine
    raises {!Fault.Device_dead} carrying the device index; a
    single-device graph recovers through {!schedule_recovered}, a
    multi-device trace through [Runtime.Migrate]. *)

type recovered = {
  result : result;
  died_at : float option;
      (** when the device was declared dead and the host took over *)
}

val schedule_recovered :
  ?obs:Obs.t ->
  Fault.spec ->
  (Fault.t option -> Task.t list) ->
  fallback:(string * float) list Lazy.t ->
  recovered
(** The one device-death ladder for single-device task graphs.  The
    graph builder receives device 0's plan ([None] under
    {!Fault.none}), so it can draw signal fates from the plan the
    engine consults.  When the device is declared dead and the policy
    allows [cpu_fallback], the host runs a ["device-dead (lost work)"]
    task as long as the time burnt up to the death, then each
    [(label, seconds)] of [fallback] in order, all [Obs.Retry] on
    [Cpu_exec]; [fault.dead_devices] and [fault.fallbacks] are
    counted.  Without [cpu_fallback] the death re-escapes as
    {!Fault.Device_dead}. *)

val makespan : Task.t list -> float

val critical_path : Task.t list -> float
(** Longest dependency chain ignoring resource contention: a lower
    bound on the makespan (property-tested against {!schedule}). *)
