(** Lowering of (shape, strategy) pairs to task graphs for the event
    engine, and the resulting timings: where the pipelining of data
    streaming, the launch-count arithmetic of offload merging, and the
    fault-vs-DMA contrast of the shared-memory mechanism become
    schedules. *)

val region_time :
  ?obs:Obs.t -> Machine.Config.t -> Plan.shape -> Plan.strategy -> float
(** Makespan of the offloadable part.  When [cfg.fault] is a live
    fault plan, transfer retries and device resets are injected and
    all recovery time lands in the makespan; an unrecoverable device
    death escapes as {!Fault.Device_dead}. *)

val total_time :
  ?obs:Obs.t -> Machine.Config.t -> Plan.shape -> Plan.strategy -> float
(** Whole-application time: region time plus [host_serial_s]. *)

val schedule :
  ?obs:Obs.t ->
  Machine.Config.t ->
  Plan.shape ->
  Plan.strategy ->
  Machine.Engine.result
(** Full schedule, for tracing / Gantt output.  With [?obs], the
    engine records one span per placed task.  Injects [cfg.fault] like
    {!region_time}. *)

val schedule_recovered :
  ?obs:Obs.t ->
  Machine.Config.t ->
  Plan.shape ->
  Plan.strategy ->
  Machine.Engine.recovered
(** Like {!schedule}, but device death goes through
    {!Machine.Engine.schedule_recovered}: when the policy allows
    [cpu_fallback], the host re-runs the region as [Host_parallel] (on
    a fault-free machine, so [slowdown=F] has no effect here) behind
    the lost device time.  Without [cpu_fallback] the death re-escapes
    as {!Fault.Device_dead}. *)
