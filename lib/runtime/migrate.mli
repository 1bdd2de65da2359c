(** Block-granular multi-device scheduling with fault-tolerant work
    migration.

    Cuts a program's offload event trace into blocks (kernel + staged
    input transfers + output transfers + residency liability), places
    each on the least-loaded (device, stream) unit, and treats each
    placement as a checkpointed, retryable unit.  Device death
    migrates the in-flight and still-assigned blocks to the surviving
    devices — re-paying the h2d transfer of resident data the dead
    device held — and falls back to the host only once every device is
    dead.  Counters: [fault.migrated_blocks], [fault.dead_devices],
    [fault.resident_repaid], [migrate.blocks]. *)

type block = {
  blk_id : int;
  blk_h2d_cells : int;  (** inputs staged before the kernel *)
  blk_d2h_cells : int;  (** outputs returned after it *)
  blk_resident_cells : int;
      (** inputs the trace elided as device-resident: a placement on a
          device that does not hold them re-pays their transfer *)
  blk_work : int;  (** kernel statement count *)
}

val blocks_of_events : Minic.Interp.event list -> block list
(** h2d and resident cells accumulate until a kernel claims them; d2h
    cells close the latest block; waits and signal tags dissolve. *)

type placement = {
  pl_block : int;
  pl_dev : int;  (** [-1] for a host-fallback execution *)
  pl_stream : int;
  pl_start : float;  (** kernel start *)
  pl_finish : float;  (** last output byte landed *)
  pl_migrations : int;  (** times the block was re-queued off a dead device *)
}

type outcome = {
  m_result : Machine.Engine.result;
  m_placements : placement list;  (** by block id, each exactly once *)
  m_migrated : int;  (** block re-queues across all device deaths *)
  m_dead : (int * float) list;  (** (device, death time), in death order *)
  m_fellback : bool;  (** every device died; the host ran the rest *)
  m_bytes_moved : float;  (** wire bytes, retransmissions included *)
}

val schedule :
  ?obs:Obs.t ->
  ?params:Replay.params ->
  Machine.Config.t ->
  Minic.Interp.event list ->
  outcome
(** Raises {!Fault.Device_dead} only when every device has died and
    the policy forbids CPU fallback ([no-fallback]). *)

val makespan :
  ?obs:Obs.t ->
  ?params:Replay.params ->
  Machine.Config.t ->
  Minic.Interp.event list ->
  float
(** [(schedule cfg events).m_result.makespan], bit for bit, with the
    same [?obs] counters and the same {!Fault.Device_dead}; it runs the
    same placement loop but computes only the makespan, building no
    labelled schedule, placement list or busy table. *)
