(** Execution-driven replay: the interpreter's offload event trace
    turned into a machine schedule, so the original and the transformed
    program can be timed as the {e actual code} they are, not as shape
    descriptors.  Synchronous operations chain on the host; an
    asynchronous transfer ([signal(t)]) runs concurrently until a
    matching [wait(t)] joins it back — recovering the Figure 5(d)
    overlap from the generated source. *)

type params = {
  bytes_per_cell : float;
      (** how many real bytes one miniature heap cell stands for *)
  seconds_per_stmt : float;
      (** device time one interpreted statement stands for *)
}

val default_params : params

exception Unmatched_wait of int
(** A [wait(t)] (or kernel [wait] clause) with no earlier [signal(t)]:
    the deadlock a lost signal would cause, surfaced loudly. *)

val tasks :
  ?obs:Obs.t ->
  ?plan:Fault.t ->
  ?params:params ->
  Machine.Config.t ->
  Minic.Interp.event list ->
  Machine.Task.t list
(** With [?obs], transfers/kernels are tagged and counted
    ([replay.signals], [replay.waits], [runtime.launches]).  With
    [?plan], each asynchronous signal is assigned its fate when raised:
    a dropped signal makes the matching wait burn the recovery timeout
    before polling the transfer directly; a delayed one stalls the
    waiter by the delay. *)

val schedule :
  ?obs:Obs.t ->
  ?params:params ->
  Machine.Config.t ->
  Minic.Interp.event list ->
  Machine.Engine.result
(** When [cfg.fault] is a live fault plan, signal fates and transfer
    retries are injected and all recovery time lands in the makespan.
    An unrecoverable device death escapes as {!Fault.Device_dead} —
    use {!schedule_recovered} to absorb it. *)

val schedule_recovered :
  ?obs:Obs.t ->
  ?params:params ->
  Machine.Config.t ->
  Minic.Interp.event list ->
  Machine.Engine.recovered
(** Like {!schedule}, but device death goes through
    {!Machine.Engine.schedule_recovered}: when the policy allows
    [cpu_fallback], every kernel re-runs host-side at the policy's
    [fallback_slowdown], with the lost device time charged up front.
    Without [cpu_fallback] the death re-escapes. *)

val makespan :
  ?params:params -> Machine.Config.t -> Minic.Interp.event list -> float

val of_program :
  ?obs:Obs.t ->
  ?params:params ->
  ?cfg:Machine.Config.t ->
  Minic.Ast.program ->
  Minic.Interp.outcome * Machine.Engine.result
(** Interpret and replay; raises [Invalid_argument] on runtime errors. *)
