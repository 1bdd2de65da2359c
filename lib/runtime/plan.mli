(** Offload execution plans.

    A {!shape} describes {e what} an application's offloadable part
    looks like (iteration count, kernel characteristics, data volumes,
    offload structure); a {!strategy} describes {e how} it is
    executed.  {!Schedule_gen} lowers the pair to a task graph. *)

type shared = {
  shared_bytes : int;  (** total pointer-based shared data *)
  shared_allocs : int;  (** dynamic shared allocations performed *)
  objects_touched : int;
      (** device-side object accesses (translation overhead) *)
  myo_touched_frac : float;
      (** fraction of the shared pages the device touches per offload
          round under MYO *)
  myo_rounds : int;
      (** offload boundaries: MYO re-faults after each sync *)
  myo_access_penalty : float;
      (** kernel slowdown from MYO's per-access coherence checks
          (>= 1.0); our scheme needs none *)
}

val default_shared : shared

type shape = {
  iters : int;  (** iterations of one offloaded loop instance *)
  kernel : Machine.Cost.kernel;
  bytes_in : float;  (** streamable input bytes per offload instance *)
  bytes_out : float;
  invariant_bytes : float;  (** transferred whole, once, up-front *)
  outer_repeats : int;  (** sequential outer loop around the offloads *)
  inner_offloads : int;  (** offload regions per outer iteration *)
  host_glue_s : float;  (** sequential host work per outer iteration *)
  host_serial_s : float;
      (** non-offloadable part of the whole application (Amdahl, for
          Figure 10) *)
  cpu_threads : int option;
      (** host threads; the paper uses 4 except dedup (5) and
          ferret (6) *)
  shared : shared option;  (** pointer-based shared structures *)
}

val default_shape : shape

type repack = {
  repack_s_per_block : float;
      (** host time to regularize one block's data *)
  pipelined : bool;
      (** overlap the repack of block [i+2] with the transfer of [i+1]
          and compute of [i] (Section IV) *)
}

type strategy =
  | Host_parallel  (** run the parallel loops on the host CPU *)
  | Naive_offload
      (** LEO semantics: every offload transfers, launches, computes,
          transfers back, synchronously *)
  | Streamed of {
      nblocks : int;
      double_buffered : bool;
      persistent : bool;  (** thread reuse: one launch + COI signals *)
      repack : repack option;  (** regularization pipelining *)
    }
  | Merged of { streamed : bool; nblocks : int }
      (** one offload hoisted around the whole outer loop; [streamed]
          additionally overlaps the up-front transfer with the first
          iterations *)
  | Shared_myo  (** pointer-based data via MYO page faulting *)
  | Shared_segbuf of { seg_bytes : int }
      (** pointer-based data via preallocated segmented buffers *)

val streamed :
  ?nblocks:int ->
  ?double_buffered:bool ->
  ?persistent:bool ->
  ?repack:repack ->
  unit ->
  strategy

val merged : ?streamed:bool -> ?nblocks:int -> unit -> strategy

val strategy_name : strategy -> string

val shared_of_shape : shape -> shared
(** The shared-structure description of a shape, with the schedule
    generator's default when none is given. *)

val myo_touched_pages : Machine.Config.t -> shared -> int
(** Pages the device touches per MYO offload round. *)

(** Transfer volumes a (shape, strategy) pair declares: what the
    lowered task graph must move.  [fault_bytes] is MYO page-fault
    traffic (kind [page_fault]), kept apart from DMA [h2d_bytes]. *)
type transfers = { h2d_bytes : float; d2h_bytes : float; fault_bytes : float }

val declared_transfers : Machine.Config.t -> shape -> strategy -> transfers
(** The totals the observed span bytes must conserve
    (property-tested). *)
