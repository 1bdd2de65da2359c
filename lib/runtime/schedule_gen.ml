(** Lowering of (shape, strategy) pairs to task graphs for the event
    engine, and the resulting timings.  This is where the pipelining of
    data streaming, the launch-count arithmetic of offload merging, and
    the fault-vs-DMA contrast of the shared-memory mechanism become
    schedules. *)

open Machine
module P = Plan

let mic_compute cfg (s : P.shape) = Cost.mic_time cfg s.kernel ~iters:s.iters

(* benchmarks may pin their own host thread count (dedup 5, ferret 6) *)
let cpu_compute (cfg : Machine.Config.t) (s : P.shape) =
  let cfg =
    match s.cpu_threads with
    | None -> cfg
    | Some n ->
        { cfg with Machine.Config.cpu = { cfg.Machine.Config.cpu with threads_used = n } }
  in
  Cost.cpu_time cfg s.kernel ~iters:s.iters

(** Task graph for one (shape, strategy).  The graph covers the
    offloadable part of the application only; [host_serial_s] is added
    by {!total_time}.  Everything runs on device 0: multi-device
    placement is {!Migrate}'s job. *)
let tasks ?obs cfg (shape : P.shape) (strategy : P.strategy) : Task.t list =
  let b = Task.builder () in
  let mic = Task.Mic_exec (0, 0) in
  let h2d = Task.Pcie_h2d 0 in
  let d2h = Task.Pcie_d2h 0 in
  (* half-duplex links serialize both directions on one channel (per
     device); the observability kind survives the remap, so d2h
     traffic is still accounted as d2h *)
  let add ?deps ?kind ?bytes ~label ~resource ~duration () =
    let resource =
      match (cfg.Machine.Config.pcie.duplex, resource) with
      | Machine.Config.Half_duplex, Task.Pcie_d2h d -> Task.Pcie_h2d d
      | _ -> resource
    in
    Task.add b ?deps ?kind ?bytes ~label ~resource ~duration ()
  in
  let bump ?(by = 1) name =
    match obs with None -> () | Some o -> Obs.incr ~by o name
  in
  (match strategy with
  | P.Host_parallel ->
      let per_offload = cpu_compute cfg shape in
      let prev = ref [] in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "cpu-loop r%d.%d" r j)
              ~resource:Task.Cpu_exec ~duration:per_offload ()
          in
          prev := [ id ]
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Naive_offload ->
      (* every offload synchronously: in-transfer, launch+compute,
         out-transfer; glue on the host between outer iterations *)
      let compute = mic_compute cfg shape in
      let prev = ref [] in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          (* loop-invariant data is allocated and transferred once
             (alloc_if/free_if reuse, standard in the ported codes) *)
          let h2d_bytes =
            shape.bytes_in
            +. if r = 0 && j = 0 then shape.invariant_bytes else 0.
          in
          let t_in =
            add ~deps:!prev
              ~label:(Printf.sprintf "h2d r%d.%d" r j)
              ~resource:h2d ~kind:Obs.H2d ~bytes:h2d_bytes
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:h2d_bytes)
              ()
          in
          bump "runtime.launches";
          let t_k =
            add ~deps:[ t_in ]
              ~label:(Printf.sprintf "kernel r%d.%d" r j)
              ~resource:mic ~kind:Obs.Kernel
              ~duration:(Cost.launch_time ?obs cfg +. compute)
              ()
          in
          let t_out =
            add ~deps:[ t_k ]
              ~label:(Printf.sprintf "d2h r%d.%d" r j)
              ~resource:d2h ~kind:Obs.D2h ~bytes:shape.bytes_out
              ~duration:
                (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
              ()
          in
          prev := [ t_out ]
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Merged { streamed; nblocks } ->
      (* one launch around the whole outer loop: data up once, all
         compute (and the glue, slowly) on the device, results back.
         The device work is modeled as one chunk per outer iteration so
         a streamed up-front transfer can overlap with the first
         iterations. *)
      let compute = mic_compute cfg shape in
      let chunk =
        (float_of_int shape.inner_offloads *. compute)
        +. Cost.mic_serial_time cfg ~cpu_seconds:shape.host_glue_s
      in
      (* the merged clause set is the union over the inner offloads *)
      let h2d_bytes =
        (shape.bytes_in *. float_of_int shape.inner_offloads)
        +. shape.invariant_bytes
      in
      let n_in = if streamed then max 1 nblocks else 1 in
      let in_ids =
        List.init n_in (fun i ->
            let blk_bytes = h2d_bytes /. float_of_int n_in in
            add
              ~label:(Printf.sprintf "h2d %d/%d" (i + 1) n_in)
              ~resource:h2d ~kind:Obs.H2d ~bytes:blk_bytes
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:blk_bytes)
              ())
      in
      bump "runtime.launches";
      let launch =
        add ~label:"launch merged" ~resource:mic ~kind:Obs.Launch
          ~duration:(Cost.launch_time ?obs cfg) ()
      in
      let first_dep =
        (* streamed: start once the first block landed; otherwise wait
           for the whole transfer *)
        if streamed then [ launch; List.hd in_ids ]
        else launch :: in_ids
      in
      let prev = ref first_dep in
      let last = ref launch in
      for r = 0 to shape.outer_repeats - 1 do
        let id =
          add ~deps:!prev
            ~label:(Printf.sprintf "merged chunk r%d" r)
            ~resource:mic ~kind:Obs.Kernel ~duration:chunk ()
        in
        prev := [ id ];
        last := id
      done;
      ignore
        (add
           ~deps:(!last :: in_ids)
           ~label:"d2h all" ~resource:d2h ~kind:Obs.D2h
           ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ())
  | P.Streamed { nblocks; double_buffered; persistent; repack } ->
      (* streamed pipeline per offload instance, chained across the
         outer structure like the naive schedule *)
      let n = max 1 nblocks in
      let compute_blk = mic_compute cfg shape /. float_of_int n in
      let in_blk = shape.bytes_in /. float_of_int n in
      let out_blk = shape.bytes_out /. float_of_int n in
      (* one model evaluation here; the per-block signal/launch events
         are counted as the blocks are laid down below *)
      let per_block_overhead =
        if persistent then Cost.signal_time ?obs cfg
        else Cost.launch_time ?obs cfg
      in
      (* the invariant data goes up once, before everything; the
         persistent kernel is launched once, after it has landed *)
      let inv =
        if shape.invariant_bytes > 0. then
          [
            add ~label:"h2d invariant" ~resource:h2d ~kind:Obs.H2d
              ~bytes:shape.invariant_bytes
              ~duration:
                (Cost.transfer_time ?obs cfg Cost.H2d
                   ~bytes:shape.invariant_bytes)
              ();
          ]
        else []
      in
      let pre0 =
        if persistent then begin
          bump "runtime.launches";
          add ~deps:inv ~label:"launch persistent" ~resource:mic
            ~kind:Obs.Launch
            ~duration:(Cost.launch_time ?obs cfg)
            ()
          :: inv
        end
        else inv
      in
      let prev = ref pre0 in
      for r = 0 to shape.outer_repeats - 1 do
        for j = 0 to shape.inner_offloads - 1 do
          let kernel_ids = Array.make n (-1) in
          let out_ids = ref [] in
          let repack_prev = ref [] in
          for blk = 0 to n - 1 do
            (* host-side regularization of this block, if any *)
            let repack_dep =
              match repack with
              | None -> []
              | Some { P.repack_s_per_block; pipelined } ->
                  let deps =
                    (* non-pipelined repacking waits for the previous
                       block's kernel: no overlap *)
                    (if pipelined then !repack_prev
                     else if blk > 0 then [ kernel_ids.(blk - 1) ]
                     else [])
                    @ !prev
                  in
                  bump "runtime.repacks";
                  let id =
                    add ~deps
                      ~label:(Printf.sprintf "repack r%d.%d b%d" r j blk)
                      ~resource:Task.Cpu_exec ~kind:Obs.Repack
                      ~duration:repack_s_per_block ()
                  in
                  repack_prev := [ id ];
                  [ id ]
            in
            (* double buffering: block b's transfer reuses the buffer
               of block b-2 and must wait for its kernel *)
            let buffer_dep =
              if double_buffered && blk >= 2 then [ kernel_ids.(blk - 2) ]
              else []
            in
            let t_in =
              add
                ~deps:(!prev @ repack_dep @ buffer_dep)
                ~label:(Printf.sprintf "h2d r%d.%d b%d" r j blk)
                ~resource:h2d ~kind:Obs.H2d ~bytes:in_blk
                ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:in_blk)
                ()
            in
            (* blocks serialize on the device in issue order *)
            let k_deps =
              t_in :: (if blk >= 1 then [ kernel_ids.(blk - 1) ] else [])
            in
            bump (if persistent then "runtime.signals" else "runtime.launches");
            let t_k =
              add ~deps:k_deps
                ~label:(Printf.sprintf "kernel r%d.%d b%d" r j blk)
                ~resource:mic ~kind:Obs.Kernel
                ~duration:(per_block_overhead +. compute_blk)
                ()
            in
            kernel_ids.(blk) <- t_k;
            let t_out =
              add ~deps:[ t_k ]
                ~label:(Printf.sprintf "d2h r%d.%d b%d" r j blk)
                ~resource:d2h ~kind:Obs.D2h ~bytes:out_blk
                ~duration:(Cost.transfer_time ?obs cfg Cost.D2h ~bytes:out_blk)
                ()
            in
            out_ids := t_out :: !out_ids
          done;
          prev := !out_ids
        done;
        if shape.host_glue_s > 0. then begin
          let id =
            add ~deps:!prev
              ~label:(Printf.sprintf "glue r%d" r)
              ~resource:Task.Cpu_exec ~duration:shape.host_glue_s ()
          in
          prev := [ id ]
        end
      done
  | P.Shared_myo ->
      (* MYO: page-granularity on-demand copies.  Touched pages fault
         once per offload round (synchronization boundaries invalidate
         the device copies); each fault pays software handling plus a
         page-sized, non-DMA copy, and every device access pays a
         coherence-state check. *)
      let sh = P.shared_of_shape shape in
      let touched = P.myo_touched_pages cfg sh in
      let per_page =
        cfg.myo.fault_cost_s
        +. float_of_int cfg.myo.page_bytes /. (cfg.myo.page_bw_gbs *. 1e9)
      in
      let fault_per_round = float_of_int touched *. per_page in
      let fault_bytes = float_of_int (touched * cfg.myo.page_bytes) in
      let rounds = max 1 sh.myo_rounds in
      let compute_per_round =
        mic_compute cfg shape *. sh.myo_access_penalty /. float_of_int rounds
      in
      bump ~by:sh.shared_allocs "runtime.myo_allocs";
      (* allocation bookkeeping on the host *)
      let t_alloc =
        add ~label:"myo allocs" ~resource:Task.Cpu_exec
          ~duration:(float_of_int sh.shared_allocs *. 2.0e-6)
          ()
      in
      let prev = ref [ t_alloc ] in
      for r = 0 to rounds - 1 do
        bump ~by:touched "runtime.page_faults";
        let t_fault =
          add ~deps:!prev
            ~label:(Printf.sprintf "myo faults r%d" r)
            ~resource:h2d ~kind:Obs.Page_fault ~bytes:fault_bytes
            ~duration:fault_per_round ()
        in
        bump "runtime.launches";
        let t_k =
          add ~deps:[ t_fault ]
            ~label:(Printf.sprintf "kernel r%d" r)
            ~resource:mic ~kind:Obs.Kernel
            ~duration:(Cost.launch_time ?obs cfg +. compute_per_round)
            ()
        in
        prev := [ t_k ]
      done;
      ignore
        (add ~deps:!prev ~label:"d2h results" ~resource:d2h
           ~kind:Obs.D2h ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ())
  | P.Shared_segbuf { seg_bytes } ->
      (* our mechanism: whole preallocated segments moved by DMA; O(1)
         pointer translation via the delta table costs a small per-access
         overhead *)
      let sh = P.shared_of_shape shape in
      let segs = max 1 ((sh.shared_bytes + seg_bytes - 1) / seg_bytes) in
      bump ~by:sh.shared_allocs "runtime.segbuf_allocs";
      bump ~by:segs "runtime.seg_allocs";
      let t_alloc =
        add ~label:"segbuf allocs" ~resource:Task.Cpu_exec ~kind:Obs.Seg_alloc
          ~duration:(float_of_int sh.shared_allocs *. 0.05e-6)
          ()
      in
      let seg_tasks =
        List.init segs (fun i ->
            let seg_xfer =
              float_of_int
                (max 0 (min seg_bytes (sh.shared_bytes - (i * seg_bytes))))
            in
            add ~deps:[ t_alloc ]
              ~label:(Printf.sprintf "dma seg%d" i)
              ~resource:h2d ~kind:Obs.H2d ~bytes:seg_xfer
              ~duration:(Cost.transfer_time ?obs cfg Cost.H2d ~bytes:seg_xfer)
              ())
      in
      let translate_overhead =
        float_of_int sh.objects_touched *. 1.0e-9
      in
      bump "runtime.launches";
      let t_k =
        add ~deps:seg_tasks ~label:"kernel" ~resource:mic
          ~kind:Obs.Kernel
          ~duration:
            (Cost.launch_time ?obs cfg +. mic_compute cfg shape
           +. translate_overhead)
          ()
      in
      ignore
        (add ~deps:[ t_k ] ~label:"d2h results" ~resource:d2h
           ~kind:Obs.D2h ~bytes:shape.bytes_out
           ~duration:
             (Cost.transfer_time ?obs cfg Cost.D2h ~bytes:shape.bytes_out)
           ()));
  Task.tasks b

(** Full schedule, for tracing.  When [cfg.fault] is a live fault
    plan, transfer retries and device resets are injected by the
    engine; an unrecoverable device death escapes as
    {!Fault.Device_dead} — use {!schedule_recovered} to absorb it. *)
let schedule ?obs (cfg : Machine.Config.t) shape strategy =
  let faults =
    Fault.fleet_of ?obs ~devices:cfg.Machine.Config.devices
      cfg.Machine.Config.fault
  in
  Engine.schedule ?obs ?faults (tasks ?obs cfg shape strategy)

(** Makespan of the offloadable part under a strategy. *)
let region_time ?obs cfg shape strategy =
  (schedule ?obs cfg shape strategy).Engine.makespan

(** Whole-application time: region time plus the host serial part. *)
let total_time ?obs cfg (shape : P.shape) strategy =
  shape.host_serial_s +. region_time ?obs cfg shape strategy

(** Like {!schedule}, but a device declared dead is absorbed by
    {!Engine.schedule_recovered}: the host re-runs the whole region as
    [Host_parallel] behind the lost device time. *)
let schedule_recovered ?obs (cfg : Machine.Config.t) shape strategy =
  let clean = { cfg with Machine.Config.fault = Fault.none } in
  Engine.schedule_recovered ?obs cfg.Machine.Config.fault
    (fun _ -> tasks ?obs cfg shape strategy)
    ~fallback:
      (lazy [ ("cpu fallback", region_time clean shape P.Host_parallel) ])
