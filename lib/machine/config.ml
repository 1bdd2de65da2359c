(** Machine parameters for the heterogeneous-system simulator.

    [paper_default] follows the experimental platform of Section VI: a
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
  page_bw_gbs : float;  (** effective bandwidth of page-sized copies
                            (no DMA batching) *)
  max_allocs : int;  (** MYO supports a limited number of shared
                         allocations *)
  max_total_bytes : int;
}

type scale = {
  sc_cores : float;
      (** multiplier on the device's compute throughput: 0.5 means the
          card runs kernels at half speed *)
  sc_bw : float;  (** multiplier on the device's PCIe link bandwidth *)
}

type t = {
  cpu : cpu;
  mic : mic;
  pcie : pcie;
  myo : myo;
  devices : int;
      (** MIC cards attached to the host, each with its own PCIe link
          described by [pcie]; the classic model is 1 *)
  streams : int;
      (** concurrent streams per device: the device's cores are
          partitioned evenly across them (a kernel on one stream runs
          on [cores/streams] cores), and all streams of a device
          contend for its one PCIe link *)
  scales : (int * scale) list;
      (** heterogeneous-fleet refinements, sorted by device index: the
          named device's compute and link speed relative to [mic] /
          [pcie].  Unlisted devices run at {!unit_scale} — the fleet
          is homogeneous when this is empty *)
  fault : Fault.spec;
      (** injected-failure plan and recovery policy; {!Fault.none}
          (the default) costs nothing anywhere.  With [devices > 1]
          the spec's [devN:] clauses refine individual devices *)
}

let gib = 1024 * 1024 * 1024

let paper_default =
  {
    cpu =
      {
        cores = 8;
        threads_used = 4;
        freq_ghz = 2.2;
        simd_bits = 256;
        flops_per_cycle = 2.0;
        mem_bw_gbs = 35.0;
      };
    mic =
      {
        cores = 60;
        threads_per_core = 4;
        threads_used = 200;
        freq_ghz = 1.05;
        simd_bits = 512;
        flops_per_cycle = 2.0;
        mem_bytes = 8 * gib;
        mem_bw_gbs = 150.0;
        launch_overhead_s = 1.0e-3;
        signal_cost_s = 5.0e-6;
        parallel_eff = 0.35;
        serial_slowdown = 8.0;
      };
    pcie =
      {
        bw_h2d_gbs = 6.0;
        bw_d2h_gbs = 6.0;
        latency_s = 2.0e-5;
        duplex = Full_duplex;
      };
    myo =
      {
        page_bytes = 4096;
        fault_cost_s = 1.0e-4;
        page_bw_gbs = 0.8;
        max_allocs = 4096;
        max_total_bytes = 512 * 1024 * 1024;
      };
    devices = 1;
    streams = 1;
    scales = [];
    fault = Fault.none;
  }

let with_faults t fault = { t with fault }

(** Install a device/stream grid; both clamped to at least 1. *)
let with_devices t ~devices ~streams =
  { t with devices = max 1 devices; streams = max 1 streams }

let unit_scale = { sc_cores = 1.0; sc_bw = 1.0 }

(** Install per-device scale factors (sorted; kept as given otherwise). *)
let with_scales t scales =
  { t with scales = List.sort (fun (a, _) (b, _) -> compare a b) scales }

(** Device [dev]'s scale; {!unit_scale} when the fleet does not refine it. *)
let scale_for t dev =
  Option.value (List.assoc_opt dev t.scales) ~default:unit_scale

(** No device deviates from {!unit_scale}: the classic identical-cards
    model, which the scheduler's legacy (uniform-cost) placement rule
    reproduces exactly. *)
let homogeneous t =
  List.for_all (fun (_, s) -> s.sc_cores = 1.0 && s.sc_bw = 1.0) t.scales

(** Effective SIMD lanes for [float] (32-bit) elements. *)
let simd_lanes bits = bits / 32

(** Peak parallel FLOP/s of the device for a loop that the compiler
    could ([vec = true]) or could not vectorize. *)
let mic_peak_flops (m : mic) ~vectorized =
  let lanes = if vectorized then float_of_int (simd_lanes m.simd_bits) else 1.0 in
  float_of_int m.cores *. m.freq_ghz *. 1e9 *. lanes *. m.flops_per_cycle
  *. m.parallel_eff

let cpu_peak_flops (c : cpu) ~vectorized =
  let lanes = if vectorized then float_of_int (simd_lanes c.simd_bits) else 1.0 in
  float_of_int c.threads_used *. c.freq_ghz *. 1e9 *. lanes *. c.flops_per_cycle
  *. 0.5
