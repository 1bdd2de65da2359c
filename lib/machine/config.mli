(** Machine parameters for the heterogeneous-system simulator.

    {!paper_default} follows the experimental platform of Section VI: a
    Xeon Phi ES2-P/A/X 1750 (61 cores at 1.05 GHz, 4 threads/core,
    512-bit SIMD, 8 GB GDDR5, one core reserved for the OS) attached
    over PCIe to a Xeon E5-2660 host (8 cores, 2.2 GHz); benchmarks use
    200 device threads and 4 host threads. *)

type cpu = {
  cores : int;
  threads_used : int;  (** the paper uses 4 (5 for dedup, 6 for ferret) *)
  freq_ghz : float;
  simd_bits : int;
  flops_per_cycle : float;  (** per lane, per core *)
  mem_bw_gbs : float;  (** sustainable memory bandwidth, GB/s *)
}

type mic = {
  cores : int;  (** usable cores (one of 61 is reserved for the OS) *)
  threads_per_core : int;
  threads_used : int;
  freq_ghz : float;
  simd_bits : int;
  flops_per_cycle : float;
  mem_bytes : int;  (** device memory capacity: the 8 GB wall *)
  mem_bw_gbs : float;
  launch_overhead_s : float;  (** K: cost of launching one kernel *)
  signal_cost_s : float;  (** COI signal, used by persistent kernels *)
  parallel_eff : float;  (** fraction of peak reached by parallel loops *)
  serial_slowdown : float;
      (** how much slower one MIC thread is than one CPU thread for
          sequential code (in-order Pentium-class core) *)
}

type duplex = Full_duplex | Half_duplex

type pcie = {
  bw_h2d_gbs : float;
  bw_d2h_gbs : float;
  latency_s : float;  (** fixed per-transfer setup cost *)
  duplex : duplex;
      (** Full_duplex: h2d and d2h proceed concurrently (PCIe reality);
          Half_duplex: one shared channel, for sensitivity studies *)
}

type myo = {
  page_bytes : int;
  fault_cost_s : float;  (** software handling of one page fault *)
  page_bw_gbs : float;
      (** effective bandwidth of page-sized copies (no DMA batching) *)
  max_allocs : int;  (** MYO caps shared allocations *)
  max_total_bytes : int;
}

(** Heterogeneous-fleet refinement of one device, relative to [mic] /
    [pcie]: [sc_cores] multiplies its compute throughput, [sc_bw] its
    PCIe link bandwidth. *)
type scale = { sc_cores : float; sc_bw : float }

type t = {
  cpu : cpu;
  mic : mic;
  pcie : pcie;
  myo : myo;
  devices : int;
      (** MIC cards attached to the host, each with its own PCIe link
          described by [pcie]; the classic model is 1 *)
  streams : int;
      (** concurrent streams per device: cores are partitioned evenly
          across them, and all streams of a device contend for its one
          PCIe link *)
  scales : (int * scale) list;
      (** heterogeneous-fleet refinements, sorted by device index;
          unlisted devices run at {!unit_scale} *)
  fault : Fault.spec;
      (** injected-failure plan and recovery policy; [Fault.none] (the
          default) costs nothing anywhere.  With [devices > 1] the
          spec's [devN:] clauses refine individual devices *)
}

val with_faults : t -> Fault.spec -> t
(** The config with a fault plan installed. *)

val with_devices : t -> devices:int -> streams:int -> t
(** Install a device/stream grid; both clamped to at least 1. *)

val unit_scale : scale
(** [{ sc_cores = 1.0; sc_bw = 1.0 }]: a device with no refinement. *)

val with_scales : t -> (int * scale) list -> t
(** Install per-device scale factors (sorted by device index). *)

val scale_for : t -> int -> scale
(** Device [dev]'s scale; {!unit_scale} when the fleet does not refine
    it. *)

val homogeneous : t -> bool
(** No device deviates from {!unit_scale}. *)

val paper_default : t

val mic_peak_flops : mic -> vectorized:bool -> float
val cpu_peak_flops : cpu -> vectorized:bool -> float
