(** Regularization of irregular memory accesses (Section IV).

    Three rewrites, each turning accesses that defeat streaming and
    512-bit vectorization into unit-stride ones:

    - {b Array reordering} (Figure 8): a gather [A[B[i]]] or a strided
      access [A[k*i + b]] is replaced by a packed array [A_pk] built on
      the host ([A_pk[r] = A[B[r]]]); the loop then reads [A_pk[i]],
      which is unit-stride, streamable, and vectorizable.  Written
      irregular arrays are scattered back after the loop.  Only applied
      to accesses not guarded by any branch, as the paper requires.
    - {b Loop splitting} (Figure 7, the [srad] pattern): when the
      irregular accesses all occur in a prefix of the loop body that
      only initializes scalar temporaries, the loop is split in two —
      the first keeps the irregular gathers, the second becomes fully
      regular and is marked [#pragma omp simd].
    - {b AoS-to-SoA}: an array of structures accessed as [a[i].f] is
      replaced by one packed array per accessed field. *)

open Minic.Ast
module A = Analysis.Access
module S = Analysis.Simplify

type failure =
  | No_irregular_access
  | Guarded of string  (** irregular access under a branch: unsafe *)
  | Not_splittable
  | No_offload_spec
  | Unknown_function of string

let pp_failure fmt = function
  | No_irregular_access -> Format.fprintf fmt "no irregular access to regularize"
  | Guarded a ->
      Format.fprintf fmt "irregular access to %s is branch-guarded" a
  | Not_splittable -> Format.fprintf fmt "loop does not match the split pattern"
  | No_offload_spec -> Format.fprintf fmt "loop has no offload pragma"
  | Unknown_function f -> Format.fprintf fmt "unknown function %s" f

let ( let* ) = Result.bind

(** {1 Applicability} *)

type kind = Reorder | Split | Soa

(* Arrays whose strided accesses leave elements unused: the paper's
   second Figure-8 pattern (e.g. nn reads fields 0 and 1 of 5-field
   records).  A stride c access set is "sparse" when the distinct
   constant offsets modulo c cover fewer than c residues — if every
   residue is touched (streamcluster reads all 4 coordinates), nothing
   is wasted and reordering would only add copies. *)
let sparse_strided_arrays accesses =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (a : A.t) ->
      match a.kind with
      | A.Affine aff when abs aff.Analysis.Affine.coeff > 1 -> (
          let c = abs aff.Analysis.Affine.coeff in
          let off =
            match Analysis.Simplify.const_int aff.Analysis.Affine.offset with
            | Some o -> Some (((o mod c) + c) mod c)
            | None -> None
          in
          match (Hashtbl.find_opt tbl a.arr, off) with
          | None, Some o -> Hashtbl.replace tbl a.arr (Some (c, [ o ]))
          | Some (Some (c', os)), Some o when c' = c ->
              Hashtbl.replace tbl a.arr
                (Some (c, if List.mem o os then os else o :: os))
          | _, _ -> Hashtbl.replace tbl a.arr None)
      | _ -> ())
    accesses;
  Hashtbl.fold
    (fun arr v acc ->
      match v with
      | Some (c, os) when List.length os < c -> arr :: acc
      | _ -> acc)
    tbl []

(* accesses that the reordering rewrite targets: gathers, and affine
   strides that skip elements *)
let reorder_target_in accesses =
  let sparse = sparse_strided_arrays accesses in
  fun (a : A.t) ->
    match a.kind with
    | A.Gather _ -> true
    | A.Affine aff ->
        abs aff.Analysis.Affine.coeff > 1 && List.mem a.arr sparse
    | A.Opaque -> false

(* The split pattern: a maximal prefix of scalar-initializing
   declarations containing all the loop's irregular accesses. *)
let split_point (fl : for_loop) =
  let is_scalar_decl = function
    | Sdecl ((Tint | Tfloat | Tbool), _, Some _) -> true
    | _ -> false
  in
  let rec prefix acc = function
    | s :: rest when is_scalar_decl s -> prefix (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let pre, rest = prefix [] fl.body in
  if pre = [] || rest = [] then None
  else
    let irregular_in block =
      A.of_block ~index:fl.index ~guarded:false [] block
      |> List.exists (fun a -> not (A.is_affine a))
    in
    if irregular_in pre && not (irregular_in rest) then Some (pre, rest)
    else None

(** Which regularization rewrites apply to this loop? *)
let applicable_kinds prog (region : Analysis.Offload_regions.region) =
  let fl = region.loop in
  let accesses = A.of_loop fl in
  let kinds = ref [] in
  let add k = if not (List.mem k !kinds) then kinds := k :: !kinds in
  (* SoA: a clause array of struct element type accessed via a[e].f *)
  (match find_func prog region.func with
  | None -> ()
  | Some f ->
      let arrays = A.arrays accesses in
      if
        List.exists
          (fun arr ->
            match Util.elem_ty prog f arr with
            | Some (Tstruct _) -> true
            | _ -> false)
          arrays
      then add Soa);
  (* Split: irregular prefix + regular rest *)
  (match split_point fl with Some _ -> add Split | None -> ());
  (* Reorder: unguarded gather or strided accesses *)
  (let reorder_target = reorder_target_in accesses in
   if List.exists (fun a -> reorder_target a && not a.A.guarded) accesses
   then add Reorder);
  List.rev !kinds

(** {1 Array reordering} *)

(* distinct (array, index-expression) patterns to pack.  The table
   restamps a key on every touch and lists keys by ascending final
   stamp: the same last-touch order as the move-to-front assoc list
   this replaces, without its O(n^2) [remove_assoc] scans. *)
let reorder_patterns accesses =
  let targets = List.filter (reorder_target_in accesses) accesses in
  let tbl = Hashtbl.create 8 in
  let stamp = ref 0 in
  List.iter
    (fun (a : A.t) ->
      let key = (a.arr, a.index) in
      incr stamp;
      let r, w, g =
        match Hashtbl.find_opt tbl key with
        | Some (_, (r, w, g)) -> (r, w, g)
        | None -> (false, false, false)
      in
      Hashtbl.replace tbl key
        (!stamp, (r || a.dir = A.Read, w || a.dir = A.Write, g || a.guarded)))
    targets;
  Hashtbl.fold (fun key (st, v) acc -> (st, (key, v)) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(** Reorder the irregular accesses of one offloaded region
    (Figure 8).  The packed arrays are built on the host before the
    offload; the offload's data clauses are rewritten to transfer the
    packed arrays instead of the scattered originals. *)
let reorder prog (region : Analysis.Offload_regions.region) =
  let* spec = Option.to_result ~none:No_offload_spec region.spec in
  let* f =
    Option.to_result
      ~none:(Unknown_function region.func)
      (find_func prog region.func)
  in
  let fl = region.loop in
  let accesses = A.of_loop fl in
  let patterns = reorder_patterns accesses in
  let* () = if patterns = [] then Error No_irregular_access else Ok () in
  let* () =
    match List.find_opt (fun (_, (_, _, g)) -> g) patterns with
    | Some ((arr, _), _) -> Error (Guarded arr)
    | None -> Ok ()
  in
  let niters = S.sub fl.hi fl.lo in
  let r = "r__" in
  let iter_to_r e =
    (* index expression evaluated at iteration [lo + r] *)
    subst_expr ~name:fl.index ~by:(S.add fl.lo (Var r)) e
  in
  let pk_of_idx = Hashtbl.create 8 in
  let items =
    List.map
      (fun ((arr, idx), (reads, writes, _)) ->
        let pk = Util.fresh (arr ^ "_pk") in
        Hashtbl.replace pk_of_idx (arr, idx) pk;
        let elem =
          match Util.elem_ty prog f arr with Some t -> t | None -> Tfloat
        in
        (arr, idx, pk, elem, reads, writes))
      patterns
  in
  let decls =
    List.map
      (fun (_, _, pk, elem, _, _) ->
        Sdecl
          (Tptr elem, pk, Some (Cast (Tptr elem, Call ("malloc", [ niters ]))))
      )
      items
  in
  (* host-side pack loop: pk[r] = arr[idx@(lo+r)] for read patterns *)
  let pack_assigns =
    List.filter_map
      (fun (arr, idx, pk, _, reads, _) ->
        if reads then
          Some (Sassign (Index (Var pk, Var r), Index (Var arr, iter_to_r idx)))
        else None)
      items
  in
  let pack_loop =
    if pack_assigns = [] then []
    else
      [
        Sfor
          { index = r; lo = Int_lit 0; hi = niters; step = Int_lit 1;
            body = pack_assigns };
      ]
  in
  (* host-side scatter-back loop for written patterns *)
  let scatter_assigns =
    List.filter_map
      (fun (arr, idx, pk, _, _, writes) ->
        if writes then
          Some (Sassign (Index (Var arr, iter_to_r idx), Index (Var pk, Var r)))
        else None)
      items
  in
  let scatter_loop =
    if scatter_assigns = [] then []
    else
      [
        Sfor
          { index = r; lo = Int_lit 0; hi = niters; step = Int_lit 1;
            body = scatter_assigns };
      ]
  in
  (* rewrite the loop body: arr[idx] -> pk[i - lo] *)
  let rec rewrite_expr e =
    match e with
    | Index (Var arr, idx) -> (
        match Hashtbl.find_opt pk_of_idx (arr, idx) with
        | Some pk ->
            Index (Var pk, S.sub (Var fl.index) fl.lo)
        | None -> Index (Var arr, rewrite_expr idx))
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> e
    | Index (a, i) -> Index (rewrite_expr a, rewrite_expr i)
    | Field (a, fd) -> Field (rewrite_expr a, fd)
    | Arrow (a, fd) -> Arrow (rewrite_expr a, fd)
    | Deref a -> Deref (rewrite_expr a)
    | Addr a -> Addr (rewrite_expr a)
    | Binop (op, a, b) -> Binop (op, rewrite_expr a, rewrite_expr b)
    | Unop (op, a) -> Unop (op, rewrite_expr a)
    | Call (fn, args) -> Call (fn, List.map rewrite_expr args)
    | Cast (t, a) -> Cast (t, rewrite_expr a)
  in
  let rec rewrite_stmt s =
    match s with
    | Sexpr e -> Sexpr (rewrite_expr e)
    | Sassign (lv, rv) -> Sassign (rewrite_expr lv, rewrite_expr rv)
    | Sdecl (t, n, init) -> Sdecl (t, n, Option.map rewrite_expr init)
    | Sif (c, b1, b2) ->
        Sif (rewrite_expr c, List.map rewrite_stmt b1, List.map rewrite_stmt b2)
    | Swhile (c, b) -> Swhile (rewrite_expr c, List.map rewrite_stmt b)
    | Sfor fl' ->
        Sfor
          {
            fl' with
            lo = rewrite_expr fl'.lo;
            hi = rewrite_expr fl'.hi;
            step = rewrite_expr fl'.step;
            body = List.map rewrite_stmt fl'.body;
          }
    | Sreturn e -> Sreturn (Option.map rewrite_expr e)
    | Sblock b -> Sblock (List.map rewrite_stmt b)
    | Spragma (p, s) -> Spragma (p, rewrite_stmt s)
    | Sbreak | Scontinue -> s
  in
  let body' = List.map rewrite_stmt fl.body in
  (* rewrite the data clauses: drop fully-replaced arrays, add packed
     ones *)
  let replaced_arrays =
    List.filter_map
      (fun (arr, _, _, _, _, _) ->
        (* an array is dropped from the clauses only if every access to
           it was irregular (and therefore packed) *)
        let reorder_target = reorder_target_in accesses in
        let still_accessed =
          List.exists
            (fun (a : A.t) ->
              String.equal a.arr arr && not (reorder_target a))
            accesses
        in
        if still_accessed then None else Some arr)
      items
  in
  let keep s = not (List.mem s.arr replaced_arrays) in
  let pk_sections mk_role =
    List.filter_map
      (fun (_, _, pk, _, reads, writes) ->
        if mk_role reads writes then Some (section_full pk niters) else None)
      items
  in
  let spec' =
    {
      spec with
      ins = List.filter keep spec.ins @ pk_sections (fun r w -> r && not w);
      outs = List.filter keep spec.outs @ pk_sections (fun r w -> w && not r);
      inouts = List.filter keep spec.inouts @ pk_sections (fun r w -> r && w);
    }
  in
  let new_loop = Spragma (Offload spec', Spragma (Omp_parallel_for, Sfor { fl with body = body' })) in
  let replacement =
    Sblock (decls @ pack_loop @ [ new_loop ] @ scatter_loop)
  in
  match Util.replace_region prog region ~replacement with
  | Some prog' -> Ok prog'
  | None -> Error No_offload_spec

(** {1 Loop splitting} *)

(** Split the irregular prefix of the loop into its own loop
    (Figure 7).  Both halves stay inside the original offload; the
    second is marked [omp simd] since it is now fully regular. *)
let split prog (region : Analysis.Offload_regions.region) =
  let* spec = Option.to_result ~none:No_offload_spec region.spec in
  let fl = region.loop in
  let* pre, rest =
    Option.to_result ~none:Not_splittable (split_point fl)
  in
  let niters = S.sub fl.hi fl.lo in
  let rel = S.sub (Var fl.index) fl.lo in
  let tmp_of = List.filter_map (function
    | Sdecl (ty, v, Some _) -> Some (v, (Util.fresh (v ^ "_t"), ty))
    | _ -> None)
    pre
  in
  let tmp_decls =
    List.map
      (fun (_, (tmp, ty)) ->
        Sdecl (Tptr ty, tmp, Some (Cast (Tptr ty, Call ("mic_malloc", [ niters ])))))
      tmp_of
  in
  (* loop 1: original scalar decls followed by stores into the temps *)
  let stores =
    List.map
      (fun (v, (tmp, _)) -> Sassign (Index (Var tmp, rel), Var v))
      tmp_of
  in
  let loop1 =
    Spragma
      ( Omp_parallel_for,
        Sfor { fl with body = pre @ stores } )
  in
  (* loop 2: the regular rest, temps substituted for the scalars *)
  let rest' =
    List.fold_left
      (fun body (v, (tmp, _)) ->
        subst_block ~name:v ~by:(Index (Var tmp, rel)) body)
      rest tmp_of
  in
  let loop2 =
    Spragma
      ( Omp_parallel_for,
        Spragma (Omp_simd, Sfor { fl with body = rest' }) )
  in
  let replacement =
    Spragma (Offload spec, Sblock (tmp_decls @ [ loop1; loop2 ]))
  in
  match Util.replace_region prog region ~replacement with
  | Some prog' -> Ok prog'
  | None -> Error No_offload_spec

(** {1 AoS to SoA} *)

(** Convert arrays of structures accessed as [a[e].f] into one array
    per field.  Restricted to unguarded, affine element indexes; the
    per-field arrays are created and filled on the host, and written
    fields are copied back after the loop. *)
let aos_to_soa prog (region : Analysis.Offload_regions.region) =
  let* spec = Option.to_result ~none:No_offload_spec region.spec in
  let* f =
    Option.to_result
      ~none:(Unknown_function region.func)
      (find_func prog region.func)
  in
  let fl = region.loop in
  (* find struct arrays and the fields they are accessed through *)
  let struct_arrays =
    List.filter_map
      (fun s ->
        match Util.elem_ty prog f s.arr with
        | Some (Tstruct sname) -> Some (s.arr, sname, S.add s.start s.len)
        | _ -> None)
      (spec.ins @ spec.outs @ spec.inouts)
  in
  let* () = if struct_arrays = [] then Error No_irregular_access else Ok () in
  (* collect field accesses a[e].f in the body.  Restamped on every
     touch and read back by descending final stamp: the same
     most-recent-touch-first order as the move-to-front assoc list
     this replaces, without its O(n^2) [remove_assoc] scans. *)
  let field_uses = Hashtbl.create 8 in
  let fu_stamp = ref 0 in
  let record arr fld ~write =
    let key = (arr, fld) in
    incr fu_stamp;
    let r, w =
      match Hashtbl.find_opt field_uses key with
      | Some (_, (r, w)) -> (r, w)
      | None -> (false, false)
    in
    Hashtbl.replace field_uses key (!fu_stamp, (r || not write, w || write))
  in
  let rec scan_expr ~write e =
    match e with
    | Field (Index (Var arr, ie), fld)
      when List.exists (fun (a, _, _) -> String.equal a arr) struct_arrays ->
        record arr fld ~write;
        scan_expr ~write:false ie
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> ()
    | Index (a, i) ->
        scan_expr ~write a;
        scan_expr ~write:false i
    | Field (a, _) | Arrow (a, _) | Deref a | Addr a | Unop (_, a)
    | Cast (_, a) ->
        scan_expr ~write a
    | Binop (_, a, b) ->
        scan_expr ~write:false a;
        scan_expr ~write:false b
    | Call (_, args) -> List.iter (scan_expr ~write:false) args
  in
  let rec scan_stmt s =
    match s with
    | Sexpr e -> scan_expr ~write:false e
    | Sassign (lv, rv) ->
        scan_expr ~write:true lv;
        scan_expr ~write:false rv
    | Sdecl (_, _, init) -> Option.iter (scan_expr ~write:false) init
    | Sif (c, b1, b2) ->
        scan_expr ~write:false c;
        List.iter scan_stmt b1;
        List.iter scan_stmt b2
    | Swhile (c, b) ->
        scan_expr ~write:false c;
        List.iter scan_stmt b
    | Sfor fl' ->
        scan_expr ~write:false fl'.lo;
        scan_expr ~write:false fl'.hi;
        scan_expr ~write:false fl'.step;
        List.iter scan_stmt fl'.body
    | Sreturn e -> Option.iter (scan_expr ~write:false) e
    | Sblock b -> List.iter scan_stmt b
    | Spragma (_, s) -> scan_stmt s
    | Sbreak | Scontinue -> ()
  in
  List.iter scan_stmt fl.body;
  let* () =
    if Hashtbl.length field_uses = 0 then Error No_irregular_access else Ok ()
  in
  let uses =
    Hashtbl.fold (fun key (st, v) acc -> (st, (key, v)) :: acc) field_uses []
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  (* per-field arrays *)
  let j = "j__" in
  let items =
    List.map
      (fun ((arr, fld), (reads, writes)) ->
        let _, sname, total =
          List.find (fun (a, _, _) -> String.equal a arr) struct_arrays
        in
        let fty =
          match find_struct prog sname with
          | Some sd -> (
              match
                List.find_opt (fun (_, fn) -> String.equal fn fld) sd.sfields
              with
              | Some (t, _) -> t
              | None -> Tfloat)
          | None -> Tfloat
        in
        (arr, fld, arr ^ "_" ^ fld, fty, total, reads, writes))
      uses
  in
  let decls =
    List.map
      (fun (_, _, name, fty, total, _, _) ->
        Sdecl (Tptr fty, name, Some (Cast (Tptr fty, Call ("malloc", [ total ]))))
      )
      items
  in
  let pack =
    List.filter_map
      (fun (arr, fld, name, _, total, reads, _) ->
        if reads then
          Some
            (Sfor
               {
                 index = j; lo = Int_lit 0; hi = total; step = Int_lit 1;
                 body =
                   [
                     Sassign
                       ( Index (Var name, Var j),
                         Field (Index (Var arr, Var j), fld) );
                   ];
               })
        else None)
      items
  in
  let unpack =
    List.filter_map
      (fun (arr, fld, name, _, total, _, writes) ->
        if writes then
          Some
            (Sfor
               {
                 index = j; lo = Int_lit 0; hi = total; step = Int_lit 1;
                 body =
                   [
                     Sassign
                       ( Field (Index (Var arr, Var j), fld),
                         Index (Var name, Var j) );
                   ];
               })
        else None)
      items
  in
  (* rewrite body: a[e].f -> a_f[e] *)
  let rec rw_expr e =
    match e with
    | Field (Index (Var arr, ie), fld) -> (
        match
          List.find_opt
            (fun (a, fd, _, _, _, _, _) ->
              String.equal a arr && String.equal fd fld)
            items
        with
        | Some (_, _, name, _, _, _, _) -> Index (Var name, rw_expr ie)
        | None -> Field (Index (Var arr, rw_expr ie), fld))
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> e
    | Index (a, i) -> Index (rw_expr a, rw_expr i)
    | Field (a, fd) -> Field (rw_expr a, fd)
    | Arrow (a, fd) -> Arrow (rw_expr a, fd)
    | Deref a -> Deref (rw_expr a)
    | Addr a -> Addr (rw_expr a)
    | Binop (op, a, b) -> Binop (op, rw_expr a, rw_expr b)
    | Unop (op, a) -> Unop (op, rw_expr a)
    | Call (fn, args) -> Call (fn, List.map rw_expr args)
    | Cast (t, a) -> Cast (t, rw_expr a)
  in
  let body' =
    List.map
      (map_stmt (fun s ->
           match s with
           | Sexpr e -> Sexpr (rw_expr e)
           | Sassign (lv, rv) -> Sassign (rw_expr lv, rw_expr rv)
           | Sdecl (t, n, init) -> Sdecl (t, n, Option.map rw_expr init)
           | Sif (c, b1, b2) -> Sif (rw_expr c, b1, b2)
           | Swhile (c, b) -> Swhile (rw_expr c, b)
           | Sfor fl' ->
               Sfor
                 {
                   fl' with
                   lo = rw_expr fl'.lo;
                   hi = rw_expr fl'.hi;
                   step = rw_expr fl'.step;
                 }
           | Sreturn e -> Sreturn (Option.map rw_expr e)
           | s -> s))
      fl.body
  in
  (* replace struct-array clauses by per-field clauses *)
  let soa_arrays = List.map (fun (a, _, _) -> a) struct_arrays in
  let keep s = not (List.mem s.arr soa_arrays) in
  let sections role =
    List.filter_map
      (fun (_, _, name, _, total, reads, writes) ->
        if role reads writes then Some (section_full name total) else None)
      items
  in
  let spec' =
    {
      spec with
      ins = List.filter keep spec.ins @ sections (fun r w -> r && not w);
      outs = List.filter keep spec.outs @ sections (fun r w -> w && not r);
      inouts = List.filter keep spec.inouts @ sections (fun r w -> r && w);
    }
  in
  let new_loop =
    Spragma
      ( Offload spec',
        Spragma (Omp_parallel_for, Sfor { fl with body = body' }) )
  in
  let replacement = Sblock (decls @ pack @ [ new_loop ] @ unpack) in
  match Util.replace_region prog region ~replacement with
  | Some prog' -> Ok prog'
  | None -> Error No_offload_spec

(** Apply the regularization rewrites in [kinds] that fit each
    offloaded region.  Returns the program and the list of
    (function, kind) applications. *)
let transform_all_kinds ~kinds:wanted prog =
  let regions = Analysis.Offload_regions.offloaded prog in
  List.fold_left
    (fun (prog, applied) region ->
      let kinds =
        List.filter (fun k -> List.mem k wanted) (applicable_kinds prog region)
      in
      List.fold_left
        (fun (prog, applied) kind ->
          let result =
            match kind with
            | Reorder -> reorder prog region
            | Split -> split prog region
            | Soa -> aos_to_soa prog region
          in
          match result with
          | Ok prog' -> (prog', (region.func, kind) :: applied)
          | Error _ -> (prog, applied))
        (prog, applied) kinds)
    (prog, []) regions

let transform_all prog = transform_all_kinds ~kinds:[ Reorder; Split; Soa ] prog
