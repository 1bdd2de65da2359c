(** Discrete-event list scheduler.

    Each resource executes its tasks serially; a task becomes ready when
    all its dependencies have finished; ties are broken by ready time,
    then by task id (i.e. FIFO in graph-construction order).  This is a
    standard non-preemptive list schedule: enough to model the overlap
    of PCIe transfers with device computation that data streaming
    exploits, and the serialization that a single DMA channel or the
    device itself imposes. *)

type placed = {
  task : Task.t;
  start : float;
  finish : float;
}

type result = {
  placed : placed list;  (** in order of completion *)
  makespan : float;
  busy : (Task.resource * float) list;  (** per-resource busy time *)
}

exception Cycle of string

(* binary min-heap of (ready_time, id, task): schedules run to tens of
   thousands of tasks (merged streamcluster: repeats x blocks), so the
   scheduler must be O(n log n) *)
module Heap = struct
  type elt = { key : float; id : int; task : Task.t }

  type t = { mutable a : elt array; mutable size : int }

  let dummy =
    {
      key = 0.;
      id = 0;
      task =
        { Task.id = 0; label = ""; resource = Task.Cpu_exec; duration = 0.;
          deps = []; kind = None; bytes = 0.; reset_xfer_s = 0. };
    }

  let create () = { a = Array.make 64 dummy; size = 0 }

  let less x y = x.key < y.key || (x.key = y.key && x.id < y.id)

  let push h e =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    h.a.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.a.(0) in
      h.size <- h.size - 1;
      h.a.(0) <- h.a.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && less h.a.(l) h.a.(!smallest) then smallest := l;
        if r < h.size && less h.a.(r) h.a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.a.(!smallest) in
          h.a.(!smallest) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

(* Synthetic placed entry covering the recovery tail of a faulted task
   (retransfers' backoff, device resets): accounted as kind [Retry] so
   it shows up as its own phase in profiles and keeps the resource
   busy-time conservation honest.  The negative id keeps it clear of
   every real task id. *)
let recovery_task (t : Task.t) ~duration =
  {
    Task.id = -1 - t.Task.id;
    label = t.Task.label ^ "+recovery";
    resource = t.Task.resource;
    duration;
    deps = [];
    kind = Some Obs.Retry;
    bytes = 0.;
    reset_xfer_s = 0.;
  }

(* Fault consultation for one task about to run at [start]: returns
   [(busy, recovery)] — the time the task itself occupies its resource
   (including retransfers or a killed-and-rerun kernel) and the extra
   recovery tail (backoff, resets).  The plan consulted is the one for
   the device the task's resource belongs to.  Raises
   {!Fault.Device_dead} (with the device index) when the degradation
   policy gives up on that device. *)
let faulted_times fleet (t : Task.t) ~start =
  let dur = t.Task.duration in
  match t.Task.resource with
  | (Task.Pcie_h2d dev | Task.Pcie_d2h dev) when dur > 0. ->
      let plan = Fault.fleet_plan fleet ~dev in
      let rep = Fault.next_transfer plan in
      let p = Fault.policy plan in
      let overhead failures resets =
        Fault.backoff_total plan ~failures
        +. (float_of_int resets *. p.Fault.reset_recovery_s)
      in
      if rep.Fault.xr_dead then
        raise
          (Fault.Device_dead
             {
               dev;
               at =
                 start
                 +. (float_of_int rep.Fault.xr_failures *. dur)
                 +. overhead rep.Fault.xr_failures rep.Fault.xr_resets;
               failures = rep.Fault.xr_failures;
             })
      else if rep.Fault.xr_failures = 0 then (dur, 0.)
      else
        (* only the failed block is retransferred: busy grows by one
           block per failed attempt, never by the whole offload *)
        ( float_of_int (rep.Fault.xr_failures + 1) *. dur,
          overhead rep.Fault.xr_failures rep.Fault.xr_resets )
  | Task.Mic_exec (dev, _) when dur > 0. -> (
      let plan = Fault.fleet_plan fleet ~dev in
      match Fault.take_reset plan ~start ~stop:(start +. dur) with
      | None -> (dur, 0.)
      | Some (reset_time, recovery) ->
          (* the kernel's progress up to the reset is lost; after the
             device recovers, it runs again from scratch — and any
             device-resident inputs the reset wiped (transfers this
             kernel elided via residency) must be moved again first *)
          ((reset_time -. start) +. dur, recovery +. t.Task.reset_xfer_s))
  | _ -> (dur, 0.)

(** Assemble a {!result} from already-placed tasks (in completion
    order): makespan is the latest finish, busy rows cover
    {!Task.base_resources} plus every resource the placements touch.
    Exposed so composite schedulers (e.g. block migration) can merge
    placements from several engine runs into one report. *)
let result_of_placed (placed : placed list) : result =
  let makespan =
    List.fold_left (fun acc p -> Float.max acc p.finish) 0. placed
  in
  let rows = Task.resources_of (List.map (fun p -> p.task) placed) in
  let busy =
    List.map
      (fun r ->
        ( r,
          List.fold_left
            (fun acc p ->
              if p.task.Task.resource = r then acc +. p.task.Task.duration
              else acc)
            0. placed ))
      rows
  in
  { placed; makespan; busy }

let schedule ?obs ?faults (tasks : Task.t list) : result =
  let n = List.length tasks in
  let by_id = Hashtbl.create (max 16 n) in
  List.iter (fun (t : Task.t) -> Hashtbl.replace by_id t.id t) tasks;
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (fun d ->
          if not (Hashtbl.mem by_id d) then
            invalid_arg
              (Printf.sprintf "task %d depends on unknown task %d" t.id d))
        t.deps)
    tasks;
  (* dependents and in-degrees for Kahn-style readiness tracking *)
  let dependents = Hashtbl.create (max 16 n) in
  let indegree = Hashtbl.create (max 16 n) in
  List.iter
    (fun (t : Task.t) ->
      Hashtbl.replace indegree t.id (List.length (List.sort_uniq compare t.deps));
      List.iter
        (fun d ->
          Hashtbl.replace dependents d
            (t.id :: Option.value (Hashtbl.find_opt dependents d) ~default:[]))
        (List.sort_uniq compare t.deps))
    tasks;
  let ready_at = Hashtbl.create (max 16 n) in
  let heap = Heap.create () in
  List.iter
    (fun (t : Task.t) ->
      if Hashtbl.find indegree t.id = 0 then begin
        Hashtbl.replace ready_at t.id 0.;
        Heap.push heap { Heap.key = 0.; id = t.id; task = t }
      end)
    tasks;
  let finish = Hashtbl.create (max 16 n) in
  let resource_free = Hashtbl.create 8 in
  let free_of r =
    Option.value (Hashtbl.find_opt resource_free r) ~default:0.
  in
  let placed = ref [] in
  let scheduled = ref 0 in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some { Heap.key = ready; task = t; _ } ->
        let start = Float.max ready (free_of t.Task.resource) in
        let busy, recovery =
          match faults with
          | None -> (t.Task.duration, 0.)
          | Some fleet -> faulted_times fleet t ~start
        in
        let fin = start +. busy +. recovery in
        Hashtbl.replace finish t.Task.id fin;
        Hashtbl.replace resource_free t.Task.resource fin;
        placed := { task = { t with Task.duration = busy }; start;
                    finish = start +. busy }
                  :: !placed;
        if recovery > 0. then
          placed :=
            { task = recovery_task t ~duration:recovery;
              start = start +. busy; finish = fin }
            :: !placed;
        (match obs with
        | None -> ()
        | Some o ->
            (* every placed task becomes one span on the simulated
               clock: the event trace behind the profile breakdown *)
            let kind =
              match t.Task.kind with
              | Some k -> k
              | None -> Task.default_kind t.Task.resource
            in
            let sid =
              Obs.span_begin ~bytes:t.Task.bytes o kind ~label:t.Task.label
                ~start
            in
            Obs.span_end o sid ~stop:(start +. busy);
            Obs.incr o "engine.tasks";
            Obs.observe o ("span_s." ^ Obs.kind_name kind) busy;
            if
              recovery > 0.
              && (match t.Task.resource with
                 | Task.Mic_exec _ -> true
                 | _ -> false)
              && t.Task.reset_xfer_s > 0.
            then begin
              (* a reset wiped device-resident data this kernel relied
                 on; the recovery tail includes its re-transfer *)
              Obs.incr o "residency.reset_retransfers";
              Obs.observe o "residency.reset_xfer_s" t.Task.reset_xfer_s
            end;
            if busy +. recovery > t.Task.duration then begin
              Obs.span o Obs.Retry
                ~label:(t.Task.label ^ "+recovery")
                ~start:(start +. busy) ~stop:fin;
              Obs.observe o "fault.recovery_s"
                (busy +. recovery -. t.Task.duration)
            end);
        incr scheduled;
        List.iter
          (fun d_id ->
            let deg = Hashtbl.find indegree d_id - 1 in
            Hashtbl.replace indegree d_id deg;
            let dep_task : Task.t = Hashtbl.find by_id d_id in
            let r =
              Float.max
                (Option.value (Hashtbl.find_opt ready_at d_id) ~default:0.)
                fin
            in
            Hashtbl.replace ready_at d_id r;
            if deg = 0 then
              Heap.push heap { Heap.key = r; id = d_id; task = dep_task })
          (Option.value (Hashtbl.find_opt dependents t.Task.id) ~default:[]);
        drain ()
  in
  drain ();
  if !scheduled <> n then
    raise
      (Cycle
         (Printf.sprintf "dependency cycle among %d tasks" (n - !scheduled)));
  result_of_placed (List.rev !placed)

type recovered = { result : result; died_at : float option }

(** The device-death ladder of a single-device task graph: schedule
    [build]'s graph under [spec] (device 0's plan is handed to [build]
    so it can draw signal fates); when the device is declared dead and
    the policy allows it, the host re-runs [fallback] as one chain
    behind the lost device time.  Without [cpu_fallback] the death
    re-escapes. *)
let schedule_recovered ?obs spec build ~fallback =
  match Fault.fleet_of ?obs ~devices:1 spec with
  | None -> { result = schedule ?obs (build None); died_at = None }
  | Some fleet -> (
      let plan = Fault.fleet_plan fleet ~dev:0 in
      try
        { result = schedule ?obs ~faults:fleet (build (Some plan));
          died_at = None }
      with Fault.Device_dead { at; _ } as death ->
        Option.iter (fun o -> Obs.incr o "fault.dead_devices") obs;
        if not (Fault.policy plan).Fault.cpu_fallback then raise death;
        Fault.note_fallback plan;
        (* the host chain: the work lost up to the death, then every
           fallback task in order; the data is already host resident *)
        let b = Task.builder () in
        let lost =
          Task.add b ~label:"device-dead (lost work)" ~resource:Task.Cpu_exec
            ~kind:Obs.Retry ~duration:at ()
        in
        ignore
          (List.fold_left
             (fun prev (label, duration) ->
               Task.add b ~deps:[ prev ] ~label ~resource:Task.Cpu_exec
                 ~kind:Obs.Retry ~duration ())
             lost (Lazy.force fallback));
        { result = schedule ?obs (Task.tasks b); died_at = Some at })

(** Makespan of a task list (convenience). *)
let makespan tasks = (schedule tasks).makespan

(** Longest dependency chain ignoring resource contention: a lower
    bound on the makespan (property-tested). *)
let critical_path (tasks : Task.t list) =
  let by_id = Hashtbl.create 16 in
  List.iter (fun (t : Task.t) -> Hashtbl.replace by_id t.id t) tasks;
  let memo = Hashtbl.create 16 in
  let rec depth (t : Task.t) =
    match Hashtbl.find_opt memo t.id with
    | Some d -> d
    | None ->
        let d =
          t.duration
          +. List.fold_left
               (fun acc dep ->
                 Float.max acc (depth (Hashtbl.find by_id dep)))
               0. t.deps
        in
        Hashtbl.replace memo t.id d;
        d
  in
  List.fold_left (fun acc t -> Float.max acc (depth t)) 0. tasks
