(** Tasks for the discrete-event engine.  A task occupies one resource
    for a fixed duration and may depend on other tasks. *)

type resource =
  | Cpu_exec  (** host cores: sequential glue, repacking *)
  | Mic_exec of int * int
      (** one stream's core partition on one device: [(device, stream)].
          Streams of a device run concurrently; tasks within a stream
          serialize *)
  | Pcie_h2d of int  (** host-to-device DMA channel of device [d] *)
  | Pcie_d2h of int  (** device-to-host DMA channel of device [d] *)

(** The classic single-MIC view: device 0, stream 0.  Schedules built
    for a one-device machine use exactly these resources, so every
    pre-existing profile and trace is unchanged. *)
let base_resources = [ Cpu_exec; Mic_exec (0, 0); Pcie_h2d 0; Pcie_d2h 0 ]

let resource_name = function
  | Cpu_exec -> "cpu"
  | Mic_exec (0, 0) -> "mic"
  | Mic_exec (d, s) -> Printf.sprintf "mic%d.%d" d s
  | Pcie_h2d 0 -> "h2d"
  | Pcie_h2d d -> Printf.sprintf "h2d%d" d
  | Pcie_d2h 0 -> "d2h"
  | Pcie_d2h d -> Printf.sprintf "d2h%d" d

(* canonical display/report order: cpu, then kernels by (dev, stream),
   then h2d links by dev, then d2h links by dev — the single-device
   prefix of which is exactly [base_resources] *)
let resource_rank = function
  | Cpu_exec -> (0, 0, 0)
  | Mic_exec (d, s) -> (1, d, s)
  | Pcie_h2d d -> (2, d, 0)
  | Pcie_d2h d -> (3, d, 0)

type t = {
  id : int;
  label : string;
  resource : resource;
  duration : float;  (** seconds; must be >= 0 *)
  deps : int list;  (** ids of tasks that must finish first *)
  kind : Obs.kind option;
      (** observability classification; [None] falls back to the
          resource's natural kind when the engine records spans *)
  bytes : float;  (** payload moved by this task (transfers), else 0 *)
  reset_xfer_s : float;
      (** extra recovery seconds a device reset costs this task on top
          of re-execution: the time to re-transfer device-resident
          inputs the reset wiped (kernels that elided transfers via
          residency), else 0 *)
}

(** The kind the engine assumes for an untagged task on [r]. *)
let default_kind = function
  | Cpu_exec -> Obs.Host
  | Mic_exec _ -> Obs.Kernel
  | Pcie_h2d _ -> Obs.H2d
  | Pcie_d2h _ -> Obs.D2h

(** The resources a report should show for [tasks]: the single-device
    base view plus everything the tasks actually use, in canonical
    order.  One-device schedules thus keep the classic four rows. *)
let resources_of (tasks : t list) =
  let seen = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace seen r ()) base_resources;
  List.iter (fun t -> Hashtbl.replace seen t.resource ()) tasks;
  List.sort
    (fun a b -> compare (resource_rank a) (resource_rank b))
    (Hashtbl.fold (fun r () acc -> r :: acc) seen [])

(** Monotonic id supply for building task graphs. *)
type builder = { mutable next_id : int; mutable tasks : t list }

let builder () = { next_id = 0; tasks = [] }

let add b ?(deps = []) ?kind ?(bytes = 0.) ?(reset_xfer_s = 0.) ~label
    ~resource ~duration () =
  let id = b.next_id in
  b.next_id <- id + 1;
  let t =
    { id; label; resource; duration = Float.max 0. duration; deps; kind;
      bytes = Float.max 0. bytes; reset_xfer_s = Float.max 0. reset_xfer_s }
  in
  b.tasks <- t :: b.tasks;
  id

let tasks b = List.rev b.tasks
