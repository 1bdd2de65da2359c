(** Execution-driven replay: turn the interpreter's offload event trace
    into a machine schedule.

    The shape-based experiments ({!Schedule_gen}) time workload
    {e descriptors}; replay instead times the {e actual program} the
    compiler produced.  The interpreter records, in program order, each
    transfer (with its [signal] tag if asynchronous), each [wait], and
    each kernel (with its statement count as a work measure).  Replay
    reconstructs the issue semantics:

    - synchronous operations chain on the host: each depends on the
      previous synchronous operation;
    - an asynchronous transfer ([signal(t)]) is issued at its program
      point (it depends on the host's progress) but nothing waits for
      it until a matching [wait(t)] — so it runs on the PCIe resource
      concurrently with whatever the device is doing;
    - a [wait(t)] joins the tagged transfer back into the host chain.

    Feeding the engine both the original and the streamed version of a
    program shows the overlap of Figure 5(d) arising from the real
    generated code, not from a hand-built task graph. *)

open Machine

type params = {
  bytes_per_cell : float;
      (** how many real bytes one miniature heap cell stands for *)
  seconds_per_stmt : float;
      (** device time one interpreted statement stands for *)
}

(** Defaults that make the miniature test programs look like
    megabyte-scale offloads: one cell ~ 64 KiB, one statement ~ 50 us
    of device work. *)
let default_params = { bytes_per_cell = 65536.; seconds_per_stmt = 5e-5 }

exception Unmatched_wait of int

(** Build the task graph of an event trace.  Under [?plan] each
    asynchronous signal is assigned its fate at the point it is raised:
    a dropped signal makes the matching wait burn the recovery timeout
    before polling the transfer directly, a delayed one stalls the
    waiter by the delay. *)
let tasks ?obs ?plan ?(params = default_params) (cfg : Config.t)
    (events : Minic.Interp.event list) : Task.t list =
  let b = Task.builder () in
  let bump name = match obs with None -> () | Some o -> Obs.incr o name in
  let signals : (int, int * Fault.fate) Hashtbl.t = Hashtbl.create 16 in
  (* deps that stand for "the wait on [tag] has completed" *)
  let join tag =
    match Hashtbl.find_opt signals tag with
    | None -> raise (Unmatched_wait tag)
    | Some (id, Fault.Deliver) -> [ id ]
    | Some (id, Fault.Delayed d) ->
        (* the signal arrives late: the waiter stalls for [d] after the
           transfer completes before it can resume *)
        let late =
          Task.add b ~deps:[ id ]
            ~label:(Printf.sprintf "late-signal#%d" tag)
            ~resource:Task.Cpu_exec ~kind:Obs.Signal ~duration:d ()
        in
        [ late ]
    | Some (id, Fault.Dropped) ->
        (* the signal never arrives: the waiter burns the full timeout,
           then recovers by polling the transfer itself — a recoverable
           stall, not a deadlock *)
        let timeout_s =
          match plan with
          | Some p -> (Fault.policy p).Fault.wait_timeout_s
          | None -> 0.
        in
        (match plan with Some p -> Fault.note_timeout p | None -> ());
        let t =
          Task.add b ~deps:[ id ]
            ~label:(Printf.sprintf "wait-timeout#%d" tag)
            ~resource:Task.Cpu_exec ~kind:Obs.Retry ~duration:timeout_s ()
        in
        [ t ]
  in
  (* the host's synchronous progress: deps for the next sync op *)
  let host_prev = ref [] in
  (* device cells the next kernel depends on that were NOT transferred
     (residency elisions, [Ev_resident]): a device reset during that
     kernel wipes them, so its recovery must pay their re-transfer *)
  let pending_resident = ref 0 in
  let transfer_task ~label ~h2d ~d2h ~deps =
    (* a transfer event is one DMA; direction by dominant volume.  The
       replayed trace is single-device (device 0): multi-device
       placement of a trace is {!Migrate}'s job *)
    let resource = if d2h > h2d then Task.Pcie_d2h 0 else Task.Pcie_h2d 0 in
    let dir = if d2h > h2d then Cost.D2h else Cost.H2d in
    let bytes = float_of_int (h2d + d2h) *. params.bytes_per_cell in
    Task.add b ~deps ~label ~resource ~kind:(Cost.kind_of_direction dir)
      ~bytes
      ~duration:(Cost.transfer_time ?obs cfg dir ~bytes)
      ()
  in
  List.iteri
    (fun i (ev : Minic.Interp.event) ->
      match ev with
      | Minic.Interp.Ev_transfer { h2d_cells; d2h_cells; signal } -> (
          let id =
            transfer_task
              ~label:(Printf.sprintf "xfer#%d" i)
              ~h2d:h2d_cells ~d2h:d2h_cells ~deps:!host_prev
          in
          match signal with
          | Some tag ->
              (* asynchronous: issued here, joined at the wait; its
                 fate (delivered / dropped / delayed) is fixed now *)
              bump "replay.signals";
              let fate =
                match plan with
                | None -> Fault.Deliver
                | Some p -> Fault.signal_fate p ~tag
              in
              Hashtbl.replace signals tag (id, fate)
          | None -> host_prev := [ id ])
      | Minic.Interp.Ev_wait tag ->
          bump "replay.waits";
          host_prev := join tag @ !host_prev
      | Minic.Interp.Ev_resident { cells } ->
          bump "replay.resident";
          pending_resident := !pending_resident + cells
      | Minic.Interp.Ev_kernel { work; wait } ->
          let wait_dep =
            match wait with
            | None -> []
            | Some tag ->
                bump "replay.waits";
                join tag
          in
          bump "runtime.launches";
          let reset_xfer_s =
            if !pending_resident = 0 then 0.
            else
              Cost.transfer_time cfg Cost.H2d
                ~bytes:(float_of_int !pending_resident *. params.bytes_per_cell)
          in
          pending_resident := 0;
          let id =
            Task.add b
              ~deps:(wait_dep @ !host_prev)
              ~label:(Printf.sprintf "kernel#%d" i)
              ~resource:(Task.Mic_exec (0, 0))
              ~kind:Obs.Kernel ~reset_xfer_s
              ~duration:
                (Cost.launch_time ?obs cfg
                +. (float_of_int work *. params.seconds_per_stmt))
              ()
          in
          host_prev := [ id ])
    events;
  Task.tasks b

(** Schedule the replayed trace.  When [cfg.fault] is a live fault
    plan, signal fates and transfer retries are injected; recovery time
    lands in the makespan.  An unrecoverable device death escapes as
    {!Fault.Device_dead} — use {!schedule_recovered} to absorb it. *)
let schedule ?obs ?params (cfg : Config.t) events =
  match Fault.fleet_of ?obs ~devices:cfg.Config.devices cfg.Config.fault with
  | None -> Engine.schedule ?obs (tasks ?obs ?params cfg events)
  | Some fleet ->
      (* signal fates are drawn from device 0's plan — the replayed
         trace places everything there, so the engine consults the
         same instance for its transfers *)
      let plan = Fault.fleet_plan fleet ~dev:0 in
      Engine.schedule ?obs ~faults:fleet (tasks ?obs ~plan ?params cfg events)

let makespan ?params cfg events = (schedule ?params cfg events).Engine.makespan

(** Like {!schedule}, but a device declared dead is absorbed by
    {!Engine.schedule_recovered}: every kernel re-runs on the host at
    the policy's [fallback_slowdown], behind the lost device time.
    Transfers vanish (the data is already host resident). *)
let schedule_recovered ?obs ?(params = default_params) (cfg : Config.t) events
    =
  let slowdown = cfg.Config.fault.Fault.policy.Fault.fallback_slowdown in
  Engine.schedule_recovered ?obs cfg.Config.fault
    (fun plan -> tasks ?obs ?plan ~params cfg events)
    ~fallback:
      (lazy
        (List.concat
           (List.mapi
              (fun i (ev : Minic.Interp.event) ->
                match ev with
                | Minic.Interp.Ev_kernel { work; _ } ->
                    [
                      ( Printf.sprintf "cpu-fallback#%d" i,
                        float_of_int work *. params.seconds_per_stmt
                        *. slowdown );
                    ]
                | _ -> [])
              events)))

(** Interpret a program and replay its trace; returns the outcome and
    the schedule.  Raises on interpreter errors. *)
let of_program ?obs ?params ?(cfg = Config.paper_default) prog =
  match Minic.Interp.run prog with
  | Error msg -> invalid_arg ("Replay.of_program: " ^ msg)
  | Ok o -> (o, schedule ?obs ?params cfg o.Minic.Interp.events)
