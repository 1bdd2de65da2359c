(** Offload execution plans.

    A {!shape} describes {e what} an application's offloadable part
    looks like (iteration count, kernel characteristics, data volumes,
    offload structure); a {!strategy} describes {e how} it is executed.
    {!Schedule_gen} lowers a (shape, strategy) pair to a task graph for
    the event engine. *)

type shared = {
  shared_bytes : int;  (** total pointer-based shared data *)
  shared_allocs : int;  (** dynamic shared allocations performed *)
  objects_touched : int;  (** device-side object accesses (for
                              translation overhead) *)
  myo_touched_frac : float;
      (** fraction of the shared pages the device actually touches per
          offload round under MYO *)
  myo_rounds : int;
      (** offload boundaries: MYO re-faults shared pages after each
          synchronization *)
  myo_access_penalty : float;
      (** kernel slowdown from MYO's per-access coherence-state checks
          (>= 1.0); our scheme needs no checks since whole segments are
          resident *)
}

let default_shared =
  {
    shared_bytes = 0;
    shared_allocs = 0;
    objects_touched = 0;
    myo_touched_frac = 1.0;
    myo_rounds = 1;
    myo_access_penalty = 1.3;
  }

type shape = {
  iters : int;  (** iterations of one offloaded loop instance *)
  kernel : Machine.Cost.kernel;
  bytes_in : float;  (** streamable input bytes per offload instance *)
  bytes_out : float;  (** output bytes per offload instance *)
  invariant_bytes : float;  (** bytes transferred whole, up-front *)
  outer_repeats : int;  (** sequential outer loop around the offloads *)
  inner_offloads : int;  (** offload regions per outer iteration *)
  host_glue_s : float;  (** sequential host work between offloads, per
                            outer iteration *)
  host_serial_s : float;  (** non-offloadable part of the whole
                              application (runs on the host in every
                              variant; Amdahl for Figure 10) *)
  cpu_threads : int option;
      (** host threads for this benchmark; the paper uses 4 except
          dedup (5) and ferret (6), their minimum pipeline widths *)
  shared : shared option;  (** pointer-based shared structures, if any *)
}

let default_shape =
  {
    iters = 1_000_000;
    kernel = Machine.Cost.default_kernel;
    bytes_in = 8e6;
    bytes_out = 8e6;
    invariant_bytes = 0.;
    outer_repeats = 1;
    inner_offloads = 1;
    host_glue_s = 0.;
    host_serial_s = 0.;
    cpu_threads = None;
    shared = None;
  }

type repack = {
  repack_s_per_block : float;
      (** host time to regularize one block's data *)
  pipelined : bool;
      (** overlap repack of block [i+2] with transfer of [i+1] and
          compute of [i] (Section IV) *)
}

type strategy =
  | Host_parallel  (** run the parallel loops on the host CPU *)
  | Naive_offload
      (** LEO semantics: every offload transfers its data, launches,
          computes, and transfers back, synchronously *)
  | Streamed of {
      nblocks : int;
      double_buffered : bool;
      persistent : bool;  (** thread reuse: one launch + COI signals *)
      repack : repack option;  (** regularization pipelining *)
    }
  | Merged of {
      streamed : bool;
          (** additionally stream the up-front transfer so the first
              outer iterations overlap with it *)
      nblocks : int;
    }  (** one offload hoisted around the whole outer loop *)
  | Shared_myo  (** pointer-based data via MYO page faulting *)
  | Shared_segbuf of { seg_bytes : int }
      (** pointer-based data via preallocated segmented buffers *)

let streamed ?(nblocks = 20) ?(double_buffered = true) ?(persistent = false)
    ?repack () =
  Streamed { nblocks; double_buffered; persistent; repack }

let merged ?(streamed = false) ?(nblocks = 20) () = Merged { streamed; nblocks }

(** The shared-structure description of a shape, defaulting (as the
    schedule generator does) to "all of [bytes_in], one allocation,
    one object access per iteration" when none is given. *)
let shared_of_shape (s : shape) =
  match s.shared with
  | Some sh -> sh
  | None ->
      {
        default_shared with
        shared_bytes = int_of_float s.bytes_in;
        shared_allocs = 1;
        objects_touched = s.iters;
      }

(** Pages the device touches per MYO offload round. *)
let myo_touched_pages (cfg : Machine.Config.t) (sh : shared) =
  let pages =
    (sh.shared_bytes + cfg.myo.page_bytes - 1) / cfg.myo.page_bytes
  in
  int_of_float (Float.round (float_of_int pages *. sh.myo_touched_frac))

(** Transfer volumes a (shape, strategy) pair {e declares}: what the
    lowered task graph must move.  [fault_bytes] is MYO page-fault
    traffic (kind [page_fault]), kept apart from DMA [h2d_bytes].  The
    conservation property test checks the observed span bytes against
    exactly these numbers. *)
type transfers = { h2d_bytes : float; d2h_bytes : float; fault_bytes : float }

let declared_transfers (cfg : Machine.Config.t) (s : shape) = function
  | Host_parallel -> { h2d_bytes = 0.; d2h_bytes = 0.; fault_bytes = 0. }
  | Naive_offload | Streamed _ ->
      let per = float_of_int (s.outer_repeats * s.inner_offloads) in
      {
        h2d_bytes = s.invariant_bytes +. (s.bytes_in *. per);
        d2h_bytes = s.bytes_out *. per;
        fault_bytes = 0.;
      }
  | Merged _ ->
      {
        h2d_bytes =
          (s.bytes_in *. float_of_int s.inner_offloads) +. s.invariant_bytes;
        d2h_bytes = s.bytes_out;
        fault_bytes = 0.;
      }
  | Shared_myo ->
      let sh = shared_of_shape s in
      let touched = myo_touched_pages cfg sh in
      let rounds = max 1 sh.myo_rounds in
      {
        h2d_bytes = 0.;
        d2h_bytes = s.bytes_out;
        fault_bytes = float_of_int (rounds * touched * cfg.myo.page_bytes);
      }
  | Shared_segbuf _ ->
      let sh = shared_of_shape s in
      {
        h2d_bytes = float_of_int (max 0 sh.shared_bytes);
        d2h_bytes = s.bytes_out;
        fault_bytes = 0.;
      }

let strategy_name = function
  | Host_parallel -> "cpu"
  | Naive_offload -> "mic-naive"
  | Streamed { double_buffered; persistent; repack; _ } ->
      Printf.sprintf "mic-streamed%s%s%s"
        (if double_buffered then "+dbuf" else "")
        (if persistent then "+reuse" else "")
        (match repack with
        | Some { pipelined = true; _ } -> "+repack-pipe"
        | Some _ -> "+repack"
        | None -> "")
  | Merged { streamed; _ } ->
      if streamed then "mic-merged+streamed" else "mic-merged"
  | Shared_myo -> "mic-myo"
  | Shared_segbuf _ -> "mic-segbuf"
