(** Apricot-style automatic offload insertion: wrap every provably
    parallel [#pragma omp parallel for] loop in an [#pragma offload]
    with inferred [in]/[out]/[inout] clauses.

    Clause roles come from use/def analysis ({!Analysis.Liveness});
    section extents come from the declared array size when available
    and otherwise from the access analysis (max touched element,
    [c*hi + max_offset]). *)

open Minic.Ast

(* Extent (element count) to transfer for [arr] in this loop. *)
let extent prog f (region : Analysis.Offload_regions.region) arr =
  match Util.array_size prog f arr with
  | Some n -> Some n
  | None ->
      (* derive from the accesses: elements [0, c*hi + max_offset) *)
      let accesses = Analysis.Access.of_loop region.loop in
      let summaries = Analysis.Access.summarize accesses in
      List.find_map
        (fun (s : Analysis.Access.summary) ->
          if not (String.equal s.name arr) then None
          else
            match s.max_coeff with
            | Some c when c >= 1 ->
                let max_off =
                  List.fold_left
                    (fun acc o ->
                      match Analysis.Simplify.const_int o with
                      | Some v -> max acc v
                      | None -> acc)
                    0 s.offsets
                in
                (* last touched element is c*(hi-1) + max_off, so the
                   exact extent is that plus one *)
                Some
                  (Analysis.Simplify.add
                     (Analysis.Simplify.mul (Int_lit c)
                        (Analysis.Simplify.sub region.loop.hi (Int_lit 1)))
                     (Int_lit (max_off + 1)))
            | _ -> None)
        summaries

(** Infer the offload spec for a candidate region: [None] when the loop
    is not provably parallel or an array's transfer size cannot be
    inferred. *)
let infer_spec prog f (region : Analysis.Offload_regions.region) =
  if Analysis.Depend.check region.loop <> [] then None
  else
    let is_array name = Util.is_array_ty (Util.var_ty prog f name) in
    let ins, outs, inouts =
      Analysis.Liveness.clause_roles ~is_array
        [ Sfor region.loop ]
    in
    let rec sections acc = function
      | [] -> Some (List.rev acc)
      | arr :: rest -> (
          match extent prog f region arr with
          | Some n -> sections (section_full arr n :: acc) rest
          | None -> None)
    in
    match (sections [] ins, sections [] outs, sections [] inouts) with
    | Some ins, Some outs, Some inouts ->
        Some { empty_spec with ins; outs; inouts }
    | _ -> None

(** Offload one candidate region. *)
let transform prog (region : Analysis.Offload_regions.region) =
  Option.bind (Minic.Ast.find_func prog region.func) (fun f ->
      Option.bind (infer_spec prog f region) (fun spec ->
          let replacement =
            Spragma
              (Offload spec, Spragma (Omp_parallel_for, Sfor region.loop))
          in
          Util.replace_region prog region ~replacement))

(** Offload every candidate parallel loop in the program; returns the
    rewritten program and the number of regions offloaded. *)
let transform_all prog =
  let candidates = Analysis.Offload_regions.candidates prog in
  List.fold_left
    (fun (prog, n) region ->
      match transform prog region with
      | Some prog' -> (prog', n + 1)
      | None ->
          (* leave unoffloadable candidates on the host *)
          (prog, n))
    (prog, 0) candidates
