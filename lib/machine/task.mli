(** Tasks for the discrete-event engine: each occupies one resource for
    a fixed duration and may depend on other tasks. *)

type resource =
  | Cpu_exec  (** host cores: sequential glue, repacking *)
  | Mic_exec of int * int
      (** one stream's core partition on one device: [(device, stream)] *)
  | Pcie_h2d of int  (** host-to-device DMA channel of device [d] *)
  | Pcie_d2h of int  (** device-to-host DMA channel of device [d] *)

val base_resources : resource list
(** The classic single-MIC view: [cpu; mic(0,0); h2d 0; d2h 0]. *)

val resource_name : resource -> string
(** ["cpu"], ["mic"]/["micD.S"], ["h2d"]/["h2dD"], ["d2h"]/["d2hD"] —
    device-0/stream-0 names match the historical single-device ones. *)

type t = {
  id : int;
  label : string;
  resource : resource;
  duration : float;  (** seconds; clamped to >= 0 by {!add} *)
  deps : int list;  (** ids of tasks that must finish first *)
  kind : Obs.kind option;
      (** observability classification; [None] falls back to
          {!default_kind} when the engine records spans *)
  bytes : float;  (** payload moved by this task (transfers), else 0 *)
  reset_xfer_s : float;
      (** extra recovery seconds a device reset costs this task on top
          of re-execution: the time to re-transfer device-resident
          inputs the reset wiped (kernels that elided transfers via
          residency), else 0 *)
}

val default_kind : resource -> Obs.kind
(** The kind the engine assumes for an untagged task on a resource. *)

val resources_of : t list -> resource list
(** {!base_resources} plus every resource the tasks use, in canonical
    report order (cpu, kernels by device/stream, links by device). *)

(** Monotonic id supply for building task graphs. *)
type builder

val builder : unit -> builder

val add :
  builder ->
  ?deps:int list ->
  ?kind:Obs.kind ->
  ?bytes:float ->
  ?reset_xfer_s:float ->
  label:string ->
  resource:resource ->
  duration:float ->
  unit ->
  int
(** Add a task; returns its id for use in later [deps]. *)

val tasks : builder -> t list
(** Tasks in creation order. *)
