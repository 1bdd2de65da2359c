(** Machine (fleet) spec grammar: device/stream grid plus per-device
    heterogeneity, e.g. ["devices=2,streams=4,dev1:cores=0.5,bw=0.75"].

    Comma-separated clauses:
    - [devices=N] — number of MIC cards ([>= 1])
    - [streams=K] — concurrent streams per device ([>= 1])
    - [devN:cores=F] — device [N] runs kernels at [F] times base speed
    - [devN:bw=F] — device [N]'s PCIe link at [F] times base bandwidth

    A [devN:] prefix is sticky: a bare [cores=]/[bw=] clause after it
    keeps refining the same device.  Scale factors must be finite and
    positive; [devN:] indices must fall inside [devices].  Malformed
    clauses are typed {!parse_error}s, mirroring the fault grammar. *)

type t = {
  f_devices : int;
  f_streams : int;
  f_scales : (int * Config.scale) list;  (** sorted by device index *)
}

val default : t
(** One device, one stream, no refinements. *)

type parse_error = { token : string; reason : string }

val error_message : parse_error -> string

val parse : string -> (t, parse_error) result
(** Parse a spec; [""] is {!default}.  A device whose factors both
    end at 1.0 gets no [f_scales] entry. *)

val scale_clauses : t -> string list
(** The [devN:cores=F] / [devN:bw=F] clauses of the fleet's scales, in
    device order; a factor of 1.0 has none. *)

val to_string : t -> string
(** Canonical spec text; [parse (to_string f) = Ok f] for any [f] that
    {!parse} returns: scale clauses at 1.0 are omitted, and each
    factor prints as the shortest of [%.15g], [%.16g] and [%.17g]
    that reads back exactly, so 0.5 prints as [%g] prints it and no
    factor is rounded. *)

val apply : Config.t -> t -> Config.t
(** Install the fleet into a machine config: {!Config.with_devices}
    then {!Config.with_scales}. *)
