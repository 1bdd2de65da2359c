(** The machine (fleet) spec grammar: devices, streams, and per-device
    heterogeneity.

    Comma-separated clauses:
    - [devices=N]      number of MIC cards (>= 1)
    - [streams=K]      concurrent streams per device (>= 1)
    - [devN:cores=F]   device N runs kernels at F times the base speed
    - [devN:bw=F]      device N's PCIe link runs at F times the base
                       bandwidth

    A [devN:] prefix is {e sticky}: a bare [cores=] / [bw=] clause
    after it keeps refining the same device, so
    [dev1:cores=0.5,bw=0.75] gives device 1 both scales.  Scale
    factors must be finite and positive; a [devN:] index must fall
    inside [devices] (write [devices=] first).  Like the fault
    grammar, every malformed clause is a typed {!parse_error} naming
    the offending token — no silent fallback. *)

type t = {
  f_devices : int;
  f_streams : int;
  f_scales : (int * Config.scale) list;  (** sorted by device index *)
}

let default = { f_devices = 1; f_streams = 1; f_scales = [] }

type parse_error = { token : string; reason : string }

let error_message { token; reason } =
  Printf.sprintf "machine: %s in %S" reason token

let clause_err c what = Error { token = c; reason = what }

let parse_pos_int c s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | _ -> clause_err c "expected a positive integer"

let parse_scale c s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f > 0. -> Ok f
  | _ -> clause_err c "scale factor must be finite and positive"

let ( let* ) = Result.bind

(* A [devN:] prefix: "dev", a non-empty run of digits, ':'.  Returns
   [(device, rest-of-clause)] — same shape as the fault grammar's. *)
let split_dev_prefix c =
  let n = String.length c in
  if n < 5 || String.sub c 0 3 <> "dev" then None
  else
    match String.index_opt c ':' with
    | Some i when i > 3 -> (
        match int_of_string_opt (String.sub c 3 (i - 3)) with
        | Some d when d >= 0 -> Some (d, String.sub c (i + 1) (n - i - 1))
        | _ -> None)
    | _ -> None

let starts c key =
  String.length c >= String.length key
  && String.sub c 0 (String.length key) = key

let after c key =
  String.sub c (String.length key) (String.length c - String.length key)

(* One scale clause for device [d]; [ctx] is the full token for error
   messages. *)
let scale_clause fleet ~ctx d c =
  let cur =
    Option.value (List.assoc_opt d fleet.f_scales) ~default:Config.unit_scale
  in
  let* cur =
    if starts c "cores=" then
      let* f = parse_scale ctx (after c "cores=") in
      Ok { cur with Config.sc_cores = f }
    else if starts c "bw=" then
      let* f = parse_scale ctx (after c "bw=") in
      Ok { cur with Config.sc_bw = f }
    else clause_err ctx "expected cores=F or bw=F after devN:"
  in
  Ok
    {
      fleet with
      f_scales = (d, cur) :: List.remove_assoc d fleet.f_scales;
    }

let parse s =
  let clauses = String.split_on_char ',' s in
  (* [ctx] is the device the last [devN:] prefix named, so bare
     [cores=]/[bw=] clauses keep refining it *)
  let rec go fleet ctx = function
    | [] ->
        Ok
          {
            fleet with
            f_scales =
              List.sort (fun (a, _) (b, _) -> compare a b) fleet.f_scales;
          }
    | c :: rest -> (
        let c = String.trim c in
        if c = "" then clause_err c "empty clause"
        else
          match split_dev_prefix c with
          | Some (d, sub) ->
              let* fleet = scale_clause fleet ~ctx:c d sub in
              go fleet (Some d) rest
          | None ->
              if starts c "devices=" then
                let* n = parse_pos_int c (after c "devices=") in
                go { fleet with f_devices = n } ctx rest
              else if starts c "streams=" then
                let* n = parse_pos_int c (after c "streams=") in
                go { fleet with f_streams = n } ctx rest
              else if starts c "cores=" || starts c "bw=" then (
                match ctx with
                | Some d ->
                    let* fleet = scale_clause fleet ~ctx:c d c in
                    go fleet ctx rest
                | None ->
                    clause_err c
                      "cores=/bw= needs a devN: prefix (or a preceding devN: \
                       clause)")
              else clause_err c "unknown clause")
  in
  if String.trim s = "" then Ok default
  else
    let* fleet = go default None clauses in
    (* a scale for a device outside the fleet is a spec bug, not a
       silently ignored refinement *)
    match
      List.find_opt (fun (d, _) -> d >= fleet.f_devices) fleet.f_scales
    with
    | Some (d, _) ->
        clause_err
          (Printf.sprintf "dev%d" d)
          (Printf.sprintf "device index out of range (devices=%d)"
             fleet.f_devices)
    | None -> Ok fleet

let scale_clauses f =
  List.concat_map
    (fun (d, (s : Config.scale)) ->
      (if s.Config.sc_cores <> 1.0 then
         [ Printf.sprintf "dev%d:cores=%g" d s.Config.sc_cores ]
       else [])
      @
      if s.Config.sc_bw <> 1.0 then
        [ Printf.sprintf "dev%d:bw=%g" d s.Config.sc_bw ]
      else [])
    f.f_scales

let to_string f =
  String.concat ","
    (Printf.sprintf "devices=%d" f.f_devices
    :: Printf.sprintf "streams=%d" f.f_streams
    :: scale_clauses f)

(** Install the fleet into a machine config: device/stream grid plus
    the heterogeneity scales. *)
let apply cfg f =
  Config.with_scales
    (Config.with_devices cfg ~devices:f.f_devices ~streams:f.f_streams)
    f.f_scales
