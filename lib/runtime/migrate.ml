(** Block-granular multi-device scheduling with fault-tolerant work
    migration.

    {!Replay} times a program's event trace on the classic one-MIC
    machine; [Migrate] instead cuts the trace into {e offload blocks}
    (a kernel plus the input transfers staged before it, the output
    transfers following it, and its residency liability) and places
    each block on the least-loaded (device, stream) unit of a
    multi-device machine.  Every placement is a checkpointed,
    retryable unit:

    - each transfer consults the {e owning device's} fault plan
      (retries, backoff, resets exactly as the engine charges them);
    - when a device's degradation policy declares it dead, the
      in-flight block and every block still assigned to that device
      migrate to the surviving devices — re-paying the h2d transfer
      of resident data the dead device held;
    - only when every device has died does the host take over,
      re-running the remaining kernels at the fallback slowdown; and
      without [cpu_fallback] that final death re-escapes as
      {!Fault.Device_dead}.

    The outcome reports the final placement of every block, so the
    {!Check.check_migrated} oracle can verify conservation: each block
    executes exactly once, on a device that was alive when it
    finished, with host placements only after total device loss. *)

open Machine

type block = {
  blk_id : int;
  blk_h2d_cells : int;  (** inputs staged before the kernel *)
  blk_d2h_cells : int;  (** outputs returned after it *)
  blk_resident_cells : int;
      (** inputs the trace elided as device-resident: a migration to a
          device that does not hold them re-pays their transfer *)
  blk_work : int;  (** kernel statement count *)
}

(** Cut an event trace into offload blocks: h2d and resident cells
    accumulate until a kernel claims them; d2h cells close the latest
    block.  Waits and signal tags dissolve — blocks are the
    synchronization unit here. *)
let blocks_of_events (events : Minic.Interp.event list) : block list =
  let blocks = ref [] in
  let h2d = ref 0 and res = ref 0 and next = ref 0 in
  let close_d2h cells =
    match !blocks with
    | b :: rest when cells > 0 ->
        blocks := { b with blk_d2h_cells = b.blk_d2h_cells + cells } :: rest
    | _ -> ()
  in
  List.iter
    (fun (ev : Minic.Interp.event) ->
      match ev with
      | Minic.Interp.Ev_transfer { h2d_cells; d2h_cells; _ } ->
          h2d := !h2d + h2d_cells;
          close_d2h d2h_cells
      | Minic.Interp.Ev_resident { cells } -> res := !res + cells
      | Minic.Interp.Ev_wait _ -> ()
      | Minic.Interp.Ev_kernel { work; _ } ->
          blocks :=
            {
              blk_id = !next;
              blk_h2d_cells = !h2d;
              blk_d2h_cells = 0;
              blk_resident_cells = !res;
              blk_work = work;
            }
            :: !blocks;
          incr next;
          h2d := 0;
          res := 0)
    events;
  List.rev !blocks

type placement = {
  pl_block : int;
  pl_dev : int;  (** [-1] for a host-fallback execution *)
  pl_stream : int;
  pl_start : float;
  pl_finish : float;
  pl_migrations : int;  (** times the block was re-queued off a dead device *)
}

type outcome = {
  m_result : Engine.result;
  m_placements : placement list;  (** by block id *)
  m_migrated : int;  (** block re-queues across all device deaths *)
  m_dead : (int * float) list;  (** (device, death time), in death order *)
  m_fellback : bool;  (** every device died; the host ran the rest *)
  m_bytes_moved : float;  (** wire bytes, retransmissions included *)
}

(* one failed placement attempt ended in device death *)
exception Died of { dev : int; at : float; failures : int }

(* a block's [ran_on] until it has executed; [-1] is the host *)
let unplaced = -2

(* The engine-task label of one busy interval: [what] is "" for the
   work itself, "+recovery" for the recovery time charged after it, or
   " (device died)" for the attempts a dying transfer burned. *)
let label ~blk ~what = function
  | Task.Mic_exec _ -> Printf.sprintf "blk%d kernel%s" blk what
  | Task.Cpu_exec -> Printf.sprintf "blk%d cpu-fallback" blk
  | (Task.Pcie_h2d _ | Task.Pcie_d2h _) as r ->
      Printf.sprintf "blk%d %s%s" blk (Task.resource_name r) what

(* The one placement loop behind [schedule] and [makespan].  Both make
   the same placements, draw the same faults and bump the same
   counters; only what they keep differs.  Every busy interval folds
   its finish into a running maximum, the makespan.  With [keep] the
   interval is also kept as a labelled engine placement, and the loop
   ends by assembling the full {!outcome}; without it, no label,
   placement record or busy table is ever built. *)
let place_blocks ?obs ~params ~keep (cfg : Config.t) events :
    float * outcome option =
  let devices = max 1 cfg.Config.devices in
  let streams = max 1 cfg.Config.streams in
  let blocks = Array.of_list (blocks_of_events events) in
  let n = Array.length blocks in
  let bump ?(by = 1) name =
    match obs with None -> () | Some o -> Obs.incr ~by o name
  in
  let fleet =
    if Fault.is_none cfg.Config.fault then None
    else Some (Fault.fleet ?obs ~devices cfg.Config.fault)
  in
  let policy =
    match fleet with
    | Some f -> Fault.policy (Fault.fleet_plan f ~dev:0)
    | None -> cfg.Config.fault.Fault.policy
  in
  let alive = Array.make devices true in
  let dead = ref [] in
  let h2d_free = Array.make devices 0. in
  let d2h_free = Array.make devices 0. in
  let unit_free = Array.make_matrix devices streams 0. in
  let host_free = ref 0. in
  let latest = ref 0. in
  let placed = ref [] in
  let next_id = ref 0 in
  let bytes_moved = ref 0. in
  let place ?(kind = Obs.Kernel) ?(bytes = 0.) ?(what = "") ~blk ~resource
      ~start ~finish () =
    latest := Float.max !latest finish;
    if keep then begin
      let id = !next_id in
      incr next_id;
      placed :=
        {
          Engine.task =
            {
              Task.id;
              label = label ~blk ~what resource;
              resource;
              duration = finish -. start;
              deps = [];
              kind = Some kind;
              bytes;
              reset_xfer_s = 0.;
            };
          start;
          finish;
        }
        :: !placed
    end
  in
  (* migration bookkeeping *)
  let assigned = Array.make (max 1 n) (0, 0) in
  let migrations = Array.make (max 1 n) 0 in
  (* where and when each block last executed; [ran_on] is [unplaced]
     until it has (again, after a death rolled it back) *)
  let ran_on = Array.make (max 1 n) unplaced in
  let ran_stream = Array.make (max 1 n) 0 in
  let ran_start = Array.make (max 1 n) 0. in
  let ran_finish = Array.make (max 1 n) 0. in
  (* a block in flight when its device died restarts no earlier than
     the death: the time burned on the dead device is really lost *)
  let ready = Array.make (max 1 n) 0. in
  (* the round-robin (device, stream) grid over the alive devices:
     consecutive units on distinct devices first, spreading blocks
     across PCIe links, then the next stream of each device *)
  let alive_units () =
    let alive = List.filter (fun d -> alive.(d)) (List.init devices Fun.id) in
    let nd = List.length alive in
    List.init (nd * streams) (fun i -> (List.nth alive (i mod nd), i / nd))
  in
  let assign_all from_block =
    (* (re-)assign every unexecuted block from [from_block] on,
       greedily to the unit with the least estimated load.  The
       actual clocks seed the estimates, so a re-assignment after a
       death accounts for work the survivors already carry; greedy
       balance (rather than blind round-robin) also keeps the
       makespan monotone in the number of dead devices — losing
       capacity can only concentrate load, never luck into a better
       packing *)
    let units = Array.of_list (alive_units ()) in
    let load =
      Array.map
        (fun (d, s) ->
          Float.max unit_free.(d).(s) (Float.max h2d_free.(d) d2h_free.(d)))
        units
    in
    let bytes cells = float_of_int cells *. params.Replay.bytes_per_cell in
    if Config.homogeneous cfg then begin
      (* identical cards: the block costs the same everywhere, so pick
         the least-loaded unit (first minimum) and charge it *)
      let cost (b : block) =
        Cost.transfer_time cfg Cost.H2d ~bytes:(bytes b.blk_h2d_cells)
        +. Cost.transfer_time cfg Cost.D2h ~bytes:(bytes b.blk_d2h_cells)
        +. Cost.launch_time cfg
        +. float_of_int b.blk_work *. params.Replay.seconds_per_stmt
           *. float_of_int streams
      in
      for i = from_block to n - 1 do
        if ran_on.(i) = unplaced then begin
          let best = ref 0 in
          for u = 1 to Array.length units - 1 do
            if load.(u) < load.(!best) then best := u
          done;
          assigned.(i) <- units.(!best);
          load.(!best) <- load.(!best) +. cost blocks.(i)
        end
      done
    end
    else begin
      (* heterogeneous fleet: the same block finishes at different
         times on different cards, so minimize estimated completion
         (load + this unit's cost), not load alone — a slow enough
         device never wins a block it would only delay *)
      let cost_on (b : block) d =
        let sc = Config.scale_for cfg d in
        Cost.transfer_time ~dev:d cfg Cost.H2d ~bytes:(bytes b.blk_h2d_cells)
        +. Cost.transfer_time ~dev:d cfg Cost.D2h ~bytes:(bytes b.blk_d2h_cells)
        +. Cost.launch_time cfg
        +. float_of_int b.blk_work *. params.Replay.seconds_per_stmt
           *. float_of_int streams /. sc.Config.sc_cores
      in
      for i = from_block to n - 1 do
        if ran_on.(i) = unplaced then begin
          let b = blocks.(i) in
          let best = ref 0 in
          let best_eta = ref (load.(0) +. cost_on b (fst units.(0))) in
          for u = 1 to Array.length units - 1 do
            let eta = load.(u) +. cost_on b (fst units.(u)) in
            if eta < !best_eta then begin
              best := u;
              best_eta := eta
            end
          done;
          assigned.(i) <- units.(!best);
          load.(!best) <- !best_eta
        end
      done
    end
  in
  if n > 0 then assign_all 0;
  (* a transfer on device [d]: consult its plan, charge retries and
     recovery, move the channel's clock, and return when it is done.
     Raises [Died] when the degradation policy gives up. *)
  let transfer ~blk ~dev ~dir ~cells ~at_least =
    if cells <= 0 then at_least
    else begin
      let bytes = float_of_int cells *. params.Replay.bytes_per_cell in
      let chan, resource =
        match (dir, cfg.Config.pcie.duplex) with
        | Cost.H2d, _ | Cost.D2h, Config.Half_duplex ->
            (h2d_free, Task.Pcie_h2d dev)
        | Cost.D2h, Config.Full_duplex -> (d2h_free, Task.Pcie_d2h dev)
      in
      let kind = Cost.kind_of_direction dir in
      let dur = Cost.transfer_time ?obs ~dev cfg dir ~bytes in
      let start = Float.max at_least chan.(dev) in
      let busy, recovery, wire =
        match fleet with
        | None -> (dur, 0., bytes)
        | Some f ->
            let plan = Fault.fleet_plan f ~dev in
            let rep = Fault.next_transfer plan in
            let overhead failures resets =
              Fault.backoff_total plan ~failures
              +. float_of_int resets
                 *. (Fault.policy plan).Fault.reset_recovery_s
            in
            if rep.Fault.xr_dead then begin
              let at =
                start
                +. (float_of_int rep.Fault.xr_failures *. dur)
                +. overhead rep.Fault.xr_failures rep.Fault.xr_resets
              in
              chan.(dev) <- at;
              (* the dying attempts still put their bytes on the wire *)
              bytes_moved :=
                !bytes_moved +. (float_of_int rep.Fault.xr_failures *. bytes);
              place ~kind:Obs.Retry ~what:" (device died)" ~blk ~resource
                ~start ~finish:at ();
              raise
                (Died { dev; at; failures = rep.Fault.xr_failures })
            end
            else
              ( float_of_int (rep.Fault.xr_failures + 1) *. dur,
                overhead rep.Fault.xr_failures rep.Fault.xr_resets,
                float_of_int (rep.Fault.xr_failures + 1) *. bytes )
      in
      let finish = start +. busy +. recovery in
      chan.(dev) <- finish;
      bytes_moved := !bytes_moved +. wire;
      place ~kind ~bytes ~blk ~resource ~start ~finish:(start +. busy) ();
      if recovery > 0. then
        place ~kind:Obs.Retry ~what:"+recovery" ~blk ~resource
          ~start:(start +. busy) ~finish ();
      finish
    end
  in
  (* run block [i] on its assigned unit; [home] is the device holding
     the resident pool (where the previous block ran) *)
  let exec_block i ~home =
    let b = blocks.(i) in
    let d, s = assigned.(i) in
    (* resident inputs live where the previous block ran: executing
       elsewhere (round-robin spread or migration off a dead device)
       re-pays their h2d transfer *)
    let repay =
      if b.blk_resident_cells > 0 && home <> d then begin
        bump "fault.resident_repaid";
        b.blk_resident_cells
      end
      else 0
    in
    let h2d_finish =
      transfer ~blk:b.blk_id ~dev:d ~dir:Cost.H2d
        ~cells:(b.blk_h2d_cells + repay) ~at_least:ready.(i)
    in
    (* the stream's core partition runs the kernel [streams] times
       slower than the whole device would; a heterogeneous card scales
       the whole-device rate by [sc_cores] *)
    let kdur =
      Cost.launch_time ?obs cfg
      +. float_of_int b.blk_work *. params.Replay.seconds_per_stmt
         *. float_of_int streams
         /. (Config.scale_for cfg d).Config.sc_cores
    in
    let kstart = Float.max h2d_finish unit_free.(d).(s) in
    (* a reset wipes resident inputs that were NOT re-paid above *)
    let reset_xfer_s =
      if repay = 0 && b.blk_resident_cells > 0 then
        Cost.transfer_time ~dev:d cfg Cost.H2d
          ~bytes:
            (float_of_int b.blk_resident_cells
            *. params.Replay.bytes_per_cell)
      else 0.
    in
    let kbusy, krecovery =
      match fleet with
      | None -> (kdur, 0.)
      | Some f -> (
          let plan = Fault.fleet_plan f ~dev:d in
          match Fault.take_reset plan ~start:kstart ~stop:(kstart +. kdur) with
          | None -> (kdur, 0.)
          | Some (reset_time, recovery) ->
              ((reset_time -. kstart) +. kdur, recovery +. reset_xfer_s))
    in
    let kfinish = kstart +. kbusy +. krecovery in
    unit_free.(d).(s) <- kfinish;
    let resource = Task.Mic_exec (d, s) in
    place ~kind:Obs.Kernel ~blk:b.blk_id ~resource ~start:kstart
      ~finish:(kstart +. kbusy) ();
    if krecovery > 0. then
      place ~kind:Obs.Retry ~what:"+recovery" ~blk:b.blk_id ~resource
        ~start:(kstart +. kbusy) ~finish:kfinish ();
    let finish =
      transfer ~blk:b.blk_id ~dev:d ~dir:Cost.D2h ~cells:b.blk_d2h_cells
        ~at_least:kfinish
    in
    ran_on.(i) <- d;
    ran_stream.(i) <- s;
    ran_start.(i) <- kstart;
    ran_finish.(i) <- Float.max finish kfinish
  in
  let migrated = ref 0 in
  let fellback = ref false in
  let last_death = ref 0. in
  let i = ref 0 in
  while !i < n do
    let d, _ = assigned.(!i) in
    if ran_on.(!i) <> unplaced then
      (* already placed (a survivor of an earlier death rollback) *)
      incr i
    else if not alive.(d) then
      (* stale assignment (shouldn't happen: deaths reassign) *)
      assign_all !i
    else
      (* resident inputs live where the previous block ran *)
      let home = if !i = 0 then unplaced else ran_on.(!i - 1) in
      match exec_block !i ~home with
      | () -> incr i
      | exception Died { dev; at; failures } ->
          alive.(dev) <- false;
          dead := !dead @ [ (dev, at) ];
          last_death := Float.max !last_death at;
          ready.(!i) <- Float.max ready.(!i) at;
          bump "fault.dead_devices";
          (* a block that "completed" on the dead device but whose
             pipeline (kernel, output transfer) was still in flight at
             the death is lost too: its results never landed, so roll
             it back and re-run it elsewhere *)
          let restart = ref !i in
          for j = !i - 1 downto 0 do
            if ran_on.(j) = dev && ran_finish.(j) > at +. 1e-9 then begin
              ran_on.(j) <- unplaced;
              ready.(j) <- Float.max ready.(j) at;
              restart := j
            end
          done;
          if List.exists (fun d -> alive.(d)) (List.init devices Fun.id)
          then begin
            (* the in-flight blocks and every block still assigned to
               the dead device move to the survivors *)
            let requeued = ref 0 in
            for j = !restart to n - 1 do
              if ran_on.(j) = unplaced && fst assigned.(j) = dev then begin
                migrations.(j) <- migrations.(j) + 1;
                incr requeued
              end
            done;
            migrated := !migrated + !requeued;
            bump ~by:!requeued "fault.migrated_blocks";
            assign_all !restart;
            i := !restart
          end
          else if not policy.Fault.cpu_fallback then
            raise (Fault.Device_dead { dev; at; failures })
          else begin
            (* graceful degradation's last rung: the host re-runs
               every remaining kernel at the fallback slowdown (the
               data is host-resident; no transfers) *)
            fellback := true;
            (match fleet with
            | Some f -> Fault.note_fallback (Fault.fleet_plan f ~dev)
            | None -> ());
            host_free := Float.max !host_free !last_death;
            for j = !restart to n - 1 do
              if ran_on.(j) = unplaced then begin
                let bj = blocks.(j) in
                let dur =
                  float_of_int bj.blk_work *. params.Replay.seconds_per_stmt
                  *. policy.Fault.fallback_slowdown
                in
                let start = !host_free in
                let finish = start +. dur in
                host_free := finish;
                place ~kind:Obs.Retry ~blk:bj.blk_id ~resource:Task.Cpu_exec
                  ~start ~finish ();
                ran_on.(j) <- -1;
                ran_stream.(j) <- 0;
                ran_start.(j) <- start;
                ran_finish.(j) <- finish
              end
            done;
            i := n
          end
  done;
  bump ~by:n "migrate.blocks";
  let outcome () =
    let placements =
      List.init n (fun i ->
          if ran_on.(i) = unplaced then
            invalid_arg "Migrate.schedule: unexecuted block";
          {
            pl_block = blocks.(i).blk_id;
            pl_dev = ran_on.(i);
            pl_stream = ran_stream.(i);
            pl_start = ran_start.(i);
            pl_finish = ran_finish.(i);
            pl_migrations = migrations.(i);
          })
    in
    let completion =
      List.sort
        (fun (a : Engine.placed) b ->
          compare (a.finish, a.task.Task.id) (b.finish, b.task.Task.id))
        (List.rev !placed)
    in
    {
      m_result = Engine.result_of_placed completion;
      m_placements = placements;
      m_migrated = !migrated;
      m_dead = !dead;
      m_fellback = !fellback;
      m_bytes_moved = !bytes_moved;
    }
  in
  (!latest, if keep then Some (outcome ()) else None)

let schedule ?obs ?(params = Replay.default_params) cfg events =
  Option.get (snd (place_blocks ?obs ~params ~keep:true cfg events))

let makespan ?obs ?(params = Replay.default_params) cfg events =
  fst (place_blocks ?obs ~params ~keep:false cfg events)
