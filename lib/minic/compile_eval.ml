(** Compile-to-closures evaluator for MiniC.

    One pass over the typed AST builds a tree of OCaml closures; running
    a program is then just invoking closures, with no AST dispatch, no
    name lookups, and no repeated [static_ty] walks.  The three static
    resolutions that make it fast:

    - {b slots}: every variable occurrence is resolved at compile time
      to an integer index into a per-activation [binding array]
      (replacing the reference interpreter's per-access [Hashtbl]
      probes).  Bindings still allocate their heap cells in exactly the
      reference order, so addresses, [Vptr] values, and the globals
      snapshot are bit-identical.
    - {b direct references}: calls bind to the target function's
      compiled closure, struct field accesses to precomputed offsets,
      and sections to element sizes — all resolved once.
    - {b specialization}: binop/unop/cast/coerce dispatch happens at
      compile time; each site gets a monomorphic closure.

    The contract is exact observational equivalence with {!Interp}:
    same output, return value, globals, stats, event trace, fuel
    accounting (identical [burn] points, so [Timeout] fires at the same
    statement), and the same error messages raised at the same
    evaluation points.  Static resolution failures (unbound variables,
    unknown structs/fields, bad section clauses) are therefore not
    compile errors: they compile to closures that raise the reference
    error at the precise moment the reference interpreter would — the
    differential harness runs untypechecked rewrites, and a transform
    bug must surface identically under both engines. *)

open Ast
open Interp

type rt = {
  st : state;
  space : space;  (** where allocations go / which pointers deref *)
  slots : binding array;  (** this activation's variables, by slot *)
}

type flow = Normal | Break | Continue | Return of value

type ecode = rt -> value
type lcode = rt -> addr
type scode = rt -> flow

(** Compile-time scope: innermost binding first, so [List.assoc]
    resolves shadowing; same-level duplicates (parameters, globals)
    are listed in declaration order, so the first one wins — the
    resolution the reference's reversed [Hashtbl.add] binds give. *)
type scope = (string * (int * ty)) list

(* A compiled function.  [call] is patched after all functions compile,
   so recursion and forward references resolve to direct closures. *)
type cfunc = {
  src : func;
  mutable call : state -> space -> value list -> value;
}

type ctx = {
  cstructs : (string * struct_def) list;  (** declaration order *)
  cfuncs : (string * cfunc) list;  (** declaration order *)
}

let dummy_binding = { cell = { space = Cpu; ofs = -1 }; vty = Tvoid }

let fresh_slot nslots =
  let s = !nslots in
  incr nslots;
  s

let check_deref rt (a : addr) =
  if rt.space = Mic && a.space = Cpu then
    error "MIC code dereferenced CPU address %d: data was not transferred"
      a.ofs

(* Local copies of [Interp.load] / [Interp.store] / [Interp.burn] that
   ocamlopt can inline into the closures (the cross-module calls are
   not inlined without flambda, and at a handful of cells per
   statement they dominate the compiled engine's floor).  Out-of-range
   offsets fall back to the Interp versions so error messages stay
   bit-identical. *)
let[@inline] fast_load st (a : addr) =
  let h = match a.space with Cpu -> st.cpu | Mic -> st.mic in
  if a.ofs < 0 || a.ofs >= h.next then load st a
  else Array.unsafe_get h.cells a.ofs

let[@inline] fast_store st (a : addr) v =
  let h = match a.space with Cpu -> st.cpu | Mic -> st.mic in
  if a.ofs < 0 || a.ofs >= h.next then store st a v
  else Array.unsafe_set h.cells a.ofs v

let[@inline] fast_burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(* In-capacity allocations skip the call into [Interp.alloc]; the grow
   path falls back to it.  [next] never decreases within a run, so
   cells at [>= next] are still the [Vundef] they were created with —
   the fast path changes no observable state differently. *)
let[@inline] fast_alloc st space n =
  let h = match space with Cpu -> st.cpu | Mic -> st.mic in
  let base = h.next in
  let needed = base + n in
  if needed <= Array.length h.cells then begin
    h.next <- needed;
    (match space with
    | Mic -> st.stats.mic_alloc_cells <- st.stats.mic_alloc_cells + n
    | Cpu -> ());
    { space; ofs = base }
  end
  else alloc st space n

(* Comparisons and logic allocate no [Vbool]: values are immutable, so
   sharing the two constants is unobservable. *)
let vtrue = Vbool true
let vfalse = Vbool false
let[@inline] vbool b = if b then vtrue else vfalse

(* A [for] loop's generic driver that also records, into [p], its
   first index and each completed iteration's fuel: a kernel's loop in
   a profiled run (see [compile_for]) *)
let record_loop (p : profile) ~clo ~slot ~cbody ~chi ~cstep rt =
  fast_burn rt.st;
  let st = rt.st in
  let cell = fast_alloc st rt.space 1 in
  let lo_v = clo rt in
  rt.slots.(slot) <- { cell; vty = Tint };
  fast_store st cell lo_v;
  let iterations = ref [] in
  let rec loop () =
    let fuel0 = st.fuel in
    fast_burn st;
    let i = as_int (fast_load st cell) in
    let hi_v = as_int (chi rt) in
    if i < hi_v then
      match cbody rt with
      | Normal | Continue ->
          let stepv = as_int (cstep rt) in
          fast_store st cell (Vint (i + stepv));
          iterations := (fuel0 - st.fuel) :: !iterations;
          loop ()
      | Break -> Normal
      | Return _ as r -> r
    else Normal
  in
  let fl = loop () in
  (* the first bound check already read [lo_v] as an int *)
  p.kernel_loop <-
    Some
      {
        lp_first = as_int lo_v;
        lp_iterations = Array.of_list (List.rev !iterations);
      };
  fl

(** {1 Static resolution}

    Compile-time mirrors of [sizeof] / [field_offset] / [static_ty].
    They return [Error msg] instead of raising: the message is exactly
    what the reference would raise, and the compiled code raises it at
    the corresponding runtime point. *)

let rec csizeof ctx ty : (int, string) result =
  match ty with
  | Tvoid -> Ok 0
  | Tint | Tfloat | Tbool | Tptr _ -> Ok 1
  | Tarray (t, Some (Int_lit n)) ->
      Result.map (fun k -> n * k) (csizeof ctx t)
  | Tarray (_, _) -> Error "sizeof of unsized array"
  | Tstruct name -> (
      match List.assoc_opt name ctx.cstructs with
      | None -> Error (Printf.sprintf "unknown struct %s" name)
      | Some s ->
          List.fold_left
            (fun acc (t, _) ->
              match acc with
              | Error _ -> acc
              | Ok a -> Result.map (fun k -> a + k) (csizeof ctx t))
            (Ok 0) s.sfields)

let cfield_offset ctx sname fname : (int * ty, string) result =
  match List.assoc_opt sname ctx.cstructs with
  | None -> Error (Printf.sprintf "unknown struct %s" sname)
  | Some s ->
      let rec loop acc = function
        | [] ->
            Error
              (Printf.sprintf "struct %s has no field %s" sname fname)
        | (t, f) :: rest ->
            if String.equal f fname then Ok (acc, t)
            else (
              match csizeof ctx t with
              | Error _ as e -> e |> Result.map (fun _ -> (0, Tvoid))
              | Ok k -> loop (acc + k) rest)
      in
      loop 0 s.sfields

let rec sty ctx (scope : scope) (e : expr) : (ty, string) result =
  let ( let* ) = Result.bind in
  match e with
  | Int_lit _ -> Ok Tint
  | Float_lit _ -> Ok Tfloat
  | Bool_lit _ -> Ok Tbool
  | Var v -> (
      match List.assoc_opt v scope with
      | Some (_, t) -> Ok t
      | None -> Error (Printf.sprintf "unbound variable %s" v))
  | Index (a, _) -> (
      let* ta = sty ctx scope a in
      match ta with
      | Tarray (t, _) | Tptr t -> Ok t
      | _ -> Error "indexing non-array")
  | Field (e, f) -> (
      let* te = sty ctx scope e in
      match te with
      | Tstruct s -> Result.map snd (cfield_offset ctx s f)
      | _ -> Error "field access on non-struct")
  | Arrow (e, f) -> (
      let* te = sty ctx scope e in
      match te with
      | Tptr (Tstruct s) | Tarray (Tstruct s, _) ->
          Result.map snd (cfield_offset ctx s f)
      | _ -> Error "-> on non-struct pointer")
  | Deref e -> (
      let* te = sty ctx scope e in
      match te with
      | Tptr t | Tarray (t, _) -> Ok t
      | _ -> Error "dereferencing non-pointer")
  | Addr e -> Result.map (fun t -> Tptr t) (sty ctx scope e)
  | Unop (Neg, e) -> sty ctx scope e
  | Unop (Not, _) -> Ok Tbool
  | Binop ((Add | Sub | Mul | Div), a, b) ->
      (* the reference evaluates the (static_ty a, static_ty b) tuple
         right to left, so b's failure surfaces first *)
      let* tb = sty ctx scope b in
      let* ta = sty ctx scope a in
      Ok
        (match (ta, tb) with
        | Tint, Tint -> Tint
        | (Tptr _ | Tarray _), _ -> (
            match ta with Tarray (t, _) -> Tptr t | t -> t)
        | _ -> Tfloat)
  | Binop (Mod, _, _) -> Ok Tint
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Ok Tbool
  | Call (fname, _) -> (
      match Builtins.find fname with
      | Some s -> Ok s.ret
      | None -> (
          match List.assoc_opt fname ctx.cfuncs with
          | Some cf -> Ok cf.src.ret
          | None -> Error (Printf.sprintf "unknown function %s" fname)))
  | Cast (t, _) -> Ok t

(* Element size for pointer arithmetic on [a]: resolved statically,
   raised (if an error) only on the runtime Vptr path, like the
   reference's lazy static_ty/sizeof calls. *)
let ptr_elt_size ctx scope a : (int, string) result =
  match sty ctx scope a with
  | Error _ as e -> e
  | Ok (Tptr t | Tarray (t, _)) -> csizeof ctx t
  | Ok _ -> Error "pointer arithmetic on non-pointer"

(* Assignment/initialization coercion, specialized per target type. *)
let ccoerce ty : value -> value =
  match ty with
  | Tint -> ( function Vfloat f -> Vint (int_of_float f) | v -> v)
  | Tfloat -> ( function Vint n -> Vfloat (float_of_int n) | v -> v)
  | _ -> fun v -> v

let esz_or_raise = function Ok k -> k | Error m -> error "%s" m

(** {1 Section and transfer machinery}

    Sections compile to [csec]: slot, element size, and start/len
    closures resolved once.  The runtime paths below mirror
    [Interp.resolve_section] / [do_transfers] operation for operation,
    sharing [copy_cells]/[shadow_for]/[translate_cells] so stats and
    heap effects are identical. *)

type csec = {
  c_arr : string;
  c_slot : int option;  (** None compiles to the unbound-clause error *)
  c_esz : (int, string) result;
      (** element size, or the non-array / sizeof error to raise *)
  c_start : ecode;
  c_len : ecode;
  c_into : (string * int option * ecode) option;
  c_translated : bool;
}

let slot_binding rt ~clause name = function
  | Some k -> rt.slots.(k)
  | None -> error "%s clause on unbound variable %s" clause name

let resolve rt cs =
  let b = slot_binding rt ~clause:"data" cs.c_arr cs.c_slot in
  let esz = esz_or_raise cs.c_esz in
  let base = as_ptr (fast_load rt.st b.cell) in
  let start = as_int (cs.c_start rt) in
  let len = as_int (cs.c_len rt) in
  if len < 0 then error "negative section length for %s" cs.c_arr;
  ({ base with ofs = base.ofs + (start * esz) }, len * esz, esz)

let transfer_in rt cs =
  let src, n, esz = resolve rt cs in
  match cs.c_into with
  | Some (dname, dslot, cdofs) ->
      let dst_b = slot_binding rt ~clause:"into()" dname dslot in
      let dst = as_ptr (fast_load rt.st dst_b.cell) in
      let dofs = as_int (cdofs rt) in
      let dst = { dst with ofs = dst.ofs + (dofs * esz) } in
      copy_cells rt.st ~src ~dst n;
      if cs.c_translated then translate_cells rt.st ~src ~dst n
  | None ->
      let b = slot_binding rt ~clause:"in()" cs.c_arr cs.c_slot in
      let cpu_base = as_ptr (fast_load rt.st b.cell) in
      let start_cells = src.ofs - cpu_base.ofs in
      let mic_base =
        shadow_for rt.st ~cpu_base ~cells_needed:(start_cells + n)
      in
      let dst = { mic_base with ofs = mic_base.ofs + start_cells } in
      copy_cells rt.st ~src ~dst n;
      if cs.c_translated then translate_cells rt.st ~src ~dst n

let transfer_out rt cs =
  match cs.c_into with
  | Some (dname, dslot, cdofs) ->
      let src, n, esz = resolve rt cs in
      let dst_b = slot_binding rt ~clause:"into()" dname dslot in
      let dst = as_ptr (fast_load rt.st dst_b.cell) in
      let dofs = as_int (cdofs rt) in
      let dst = { dst with ofs = dst.ofs + (dofs * esz) } in
      copy_cells rt.st ~src ~dst n;
      if cs.c_translated then translate_cells rt.st ~src ~dst n
  | None ->
      let dst, n, _ = resolve rt cs in
      let b = slot_binding rt ~clause:"out()" cs.c_arr cs.c_slot in
      let cpu_base = as_ptr (fast_load rt.st b.cell) in
      let start_cells = dst.ofs - cpu_base.ofs in
      let mic_base =
        match Hashtbl.find_opt rt.st.shadows cpu_base.ofs with
        | Some m -> m
        | None -> error "out() for %s before any in()" cs.c_arr
      in
      copy_cells rt.st
        ~src:{ mic_base with ofs = mic_base.ofs + start_cells }
        ~dst n

let section_name cs = cs.c_arr

(* [ins] then [outs], with each section's moved cells in a profiled
   run (see [Interp.move_sections]) *)
let move_all rt ins outs =
  let sections = move_sections rt.st ~name:section_name (transfer_in rt) ins in
  sections @ move_sections rt.st ~name:section_name (transfer_out rt) outs

(* out-only arrays need a device buffer even without an in() copy *)
let ensure_shadow rt cs =
  if Option.is_none cs.c_into then begin
    let addr, n, _ = resolve rt cs in
    let b = slot_binding rt ~clause:"out()" cs.c_arr cs.c_slot in
    let cpu_base = as_ptr (fast_load rt.st b.cell) in
    let start_cells = addr.ofs - cpu_base.ofs in
    ignore (shadow_for rt.st ~cpu_base ~cells_needed:(start_cells + n))
  end

(** {1 Expression compilation} *)

let rec cexpr ctx scope (e : expr) : ecode =
  match e with
  | Int_lit n ->
      let v = Vint n in
      fun _ -> v
  | Float_lit f ->
      let v = Vfloat f in
      fun _ -> v
  | Bool_lit b ->
      let v = Vbool b in
      fun _ -> v
  | Var v -> (
      match List.assoc_opt v scope with
      (* slot indices are < the activation's slot-array length by
         construction (same counter sizes both), so unsafe_get *)
      | Some (k, _) -> fun rt -> fast_load rt.st (Array.unsafe_get rt.slots k).cell
      | None -> fun _ -> error "unbound variable %s" v)
  | (Index _ | Field _ | Arrow _ | Deref _) as e -> (
      let lv, ty = clvalue ctx scope e in
      match ty with
      | Tarray (_, _) ->
          (* arrays decay to element pointer *)
          fun rt ->
            let a = lv rt in
            check_deref rt a;
            Vptr a
      | _ ->
          fun rt ->
            let a = lv rt in
            check_deref rt a;
            fast_load rt.st a)
  | Addr e ->
      let lv, _ = clvalue ctx scope e in
      fun rt -> Vptr (lv rt)
  | Unop (Neg, e) -> (
      let c = cexpr ctx scope e in
      fun rt ->
        match c rt with
        | Vint n -> Vint (-n)
        | Vfloat f -> Vfloat (-.f)
        | _ -> error "- on non-numeric value")
  | Unop (Not, e) ->
      let c = cexpr ctx scope e in
      fun rt -> vbool (not (as_bool (c rt)))
  | Binop (op, a, b) -> cbinop ctx scope op a b
  | Call (fname, args) -> ccall ctx scope fname args
  | Cast (t, e) -> (
      let c = cexpr ctx scope e in
      (* already-right-shaped values pass through unreallocated: values
         are immutable, so sharing is unobservable *)
      match t with
      | Tint -> (
          fun rt ->
            match c rt with
            | Vfloat f -> Vint (int_of_float f)
            | Vint _ as v -> v
            | Vbool b -> Vint (if b then 1 else 0)
            | _ -> error "unsupported cast at runtime")
      | Tfloat -> (
          fun rt ->
            match c rt with
            | Vint n -> Vfloat (float_of_int n)
            | Vfloat _ as v -> v
            | _ -> error "unsupported cast at runtime")
      | Tbool -> (
          fun rt ->
            match c rt with
            | Vbool _ as v -> v
            | v -> vbool (as_bool v))
      | Tptr _ -> (
          fun rt ->
            match c rt with
            | Vptr _ as p -> p
            | _ -> error "unsupported cast at runtime")
      | Tvoid | Tarray _ | Tstruct _ ->
          fun rt ->
            let _ = c rt in
            error "unsupported cast at runtime")

and cbinop ctx scope op a b : ecode =
  let ca = cexpr ctx scope a in
  let cb = cexpr ctx scope b in
  (* One fully-applied closure per operator — no higher-order [fi]/[ff]
     indirection left on the hot path.  The pointer-arithmetic element
     size (and any static failure along the way) is resolved once and
     raised only on the runtime Vptr path, as the reference does.
     Comparisons stay [compare]-based like the reference, so float
     comparisons use the same total order (NaN included) under both
     engines. *)
  match op with
  | Add ->
      let pinfo = ptr_elt_size ctx scope a in
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in arithmetic"
        | Vint x, Vint y -> Vint (x + y)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            Vfloat (as_float va +. as_float vb)
        | Vptr p, Vint n ->
            let k = esz_or_raise pinfo in
            Vptr { p with ofs = p.ofs + (n * k) }
        | _ -> error "arithmetic on non-numeric values")
  | Sub ->
      let pinfo = ptr_elt_size ctx scope a in
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in arithmetic"
        | Vint x, Vint y -> Vint (x - y)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            Vfloat (as_float va -. as_float vb)
        | Vptr p, Vint n ->
            let k = esz_or_raise pinfo in
            Vptr { p with ofs = p.ofs - (n * k) }
        | _ -> error "arithmetic on non-numeric values")
  | Mul ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in arithmetic"
        | Vint x, Vint y -> Vint (x * y)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            Vfloat (as_float va *. as_float vb)
        | Vptr _, Vint _ -> error "invalid pointer arithmetic"
        | _ -> error "arithmetic on non-numeric values")
  | Div -> (
      fun rt ->
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vint _, Vint 0 -> error "division by zero"
        | Vint x, Vint y -> Vint (x / y)
        | _ -> Vfloat (as_float va /. as_float vb))
  | Mod -> (
      fun rt ->
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vint _, Vint 0 -> error "modulo by zero"
        | Vint x, Vint y -> Vint (x mod y)
        | _ -> error "%% on non-int values")
  | Eq ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y = 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) = 0)
        | Vptr x, Vptr y -> vbool (compare x y = 0)
        | Vbool x, Vbool y -> vbool (compare x y = 0)
        | _ -> error "comparison of incompatible values")
  | Ne ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y <> 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) <> 0)
        | Vptr x, Vptr y -> vbool (compare x y <> 0)
        | Vbool x, Vbool y -> vbool (compare x y <> 0)
        | _ -> error "comparison of incompatible values")
  | Lt ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y < 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) < 0)
        | Vptr x, Vptr y -> vbool (compare x y < 0)
        | Vbool x, Vbool y -> vbool (compare x y < 0)
        | _ -> error "comparison of incompatible values")
  | Le ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y <= 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) <= 0)
        | Vptr x, Vptr y -> vbool (compare x y <= 0)
        | Vbool x, Vbool y -> vbool (compare x y <= 0)
        | _ -> error "comparison of incompatible values")
  | Gt ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y > 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) > 0)
        | Vptr x, Vptr y -> vbool (compare x y > 0)
        | Vbool x, Vbool y -> vbool (compare x y > 0)
        | _ -> error "comparison of incompatible values")
  | Ge ->
      fun rt -> (
        let va = ca rt in
        let vb = cb rt in
        match (va, vb) with
        | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
        | Vint x, Vint y -> vbool (compare x y >= 0)
        | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
            vbool (compare (as_float va) (as_float vb) >= 0)
        | Vptr x, Vptr y -> vbool (compare x y >= 0)
        | Vbool x, Vbool y -> vbool (compare x y >= 0)
        | _ -> error "comparison of incompatible values")
  | And ->
      fun rt ->
        let va = ca rt in
        let vb = cb rt in
        vbool (as_bool va && as_bool vb)
  | Or ->
      fun rt ->
        let va = ca rt in
        let vb = cb rt in
        vbool (as_bool va || as_bool vb)

and clvalue ctx scope (e : expr) : lcode * ty =
  match e with
  | Var v -> (
      match List.assoc_opt v scope with
      | Some (k, t) -> ((fun rt -> (Array.unsafe_get rt.slots k).cell), t)
      | None -> ((fun _ -> error "unbound variable %s" v), Tvoid))
  | Index (a, i) -> (
      let ci = cexpr ctx scope i in
      match sty ctx scope a with
      | Ok (Tarray (elt, _) | Tptr elt) ->
          let ca = cexpr ctx scope a in
          let code =
            (* hoist the element-size Result match out of the
               per-access closure; the Error case still raises after
               index/base evaluation, where the reference raises it *)
            match csizeof ctx elt with
            | Ok k ->
                fun rt ->
                  let n = as_int (ci rt) in
                  let base = as_ptr (ca rt) in
                  check_deref rt base;
                  { base with ofs = base.ofs + (n * k) }
            | Error m ->
                fun rt ->
                  let _ = as_int (ci rt) in
                  let base = as_ptr (ca rt) in
                  check_deref rt base;
                  error "%s" m
          in
          (code, elt)
      | Ok _ ->
          ( (fun rt ->
              let _ = as_int (ci rt) in
              error "indexing non-array"),
            Tvoid )
      | Error m ->
          ( (fun rt ->
              let _ = as_int (ci rt) in
              error "%s" m),
            Tvoid ))
  | Field (e, f) -> (
      let lv, ty = clvalue ctx scope e in
      match ty with
      | Tstruct s -> (
          match cfield_offset ctx s f with
          | Ok (fofs, fty) ->
              ( (fun rt ->
                  let a = lv rt in
                  { a with ofs = a.ofs + fofs }),
                fty )
          | Error m ->
              ( (fun rt ->
                  let _ = lv rt in
                  error "%s" m),
                Tvoid ))
      | _ ->
          ( (fun rt ->
              let _ = lv rt in
              error "field access on non-struct"),
            Tvoid ))
  | Arrow (e, f) -> (
      let ce = cexpr ctx scope e in
      let info =
        match sty ctx scope e with
        | Ok (Tptr (Tstruct s) | Tarray (Tstruct s, _)) ->
            cfield_offset ctx s f
        | Ok _ -> Error "-> on non-struct pointer"
        | Error m -> Error m
      in
      match info with
      | Ok (fofs, fty) ->
          ( (fun rt ->
              let p = as_ptr (ce rt) in
              check_deref rt p;
              { p with ofs = p.ofs + fofs }),
            fty )
      | Error m ->
          ( (fun rt ->
              let p = as_ptr (ce rt) in
              check_deref rt p;
              error "%s" m),
            Tvoid ))
  | Deref e -> (
      let ce = cexpr ctx scope e in
      match sty ctx scope e with
      | Ok (Tptr t | Tarray (t, _)) ->
          ( (fun rt ->
              let p = as_ptr (ce rt) in
              check_deref rt p;
              p),
            t )
      | Ok _ ->
          ( (fun rt ->
              let p = as_ptr (ce rt) in
              check_deref rt p;
              error "dereferencing non-pointer"),
            Tvoid )
      | Error m ->
          ( (fun rt ->
              let p = as_ptr (ce rt) in
              check_deref rt p;
              error "%s" m),
            Tvoid ))
  | _ -> ((fun _ -> error "not an lvalue"), Tvoid)

and ccall ctx scope fname args : ecode =
  let cargs = List.map (cexpr ctx scope) args in
  let nargs = List.length cargs in
  let evargs rt = List.map (fun c -> c rt) cargs in
  let arg1 () = List.nth cargs 0 in
  let arg2 () = List.nth cargs 1 in
  (* dispatch resolved here, once: the reference re-matches
     (name, args) on every call *)
  match (fname, nargs) with
  | "print_int", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        let v = c rt in
        Buffer.add_string rt.st.output (string_of_int (as_int v));
        Buffer.add_char rt.st.output '\n';
        Vundef
  | "print_float", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        let v = c rt in
        Buffer.add_string rt.st.output (format_float "%.6g" (as_float v));
        Buffer.add_char rt.st.output '\n';
        Vundef
  | "print_bool", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        let v = c rt in
        Buffer.add_string rt.st.output (if as_bool v then "true" else "false");
        Buffer.add_char rt.st.output '\n';
        Vundef
  | "malloc", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        Vptr (fast_alloc rt.st Cpu (as_int (c rt)))
  | "mic_malloc", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        Vptr (fast_alloc rt.st Mic (as_int (c rt)))
  | ("free" | "mic_free"), 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        let _ = c rt in
        Vundef (* bump allocator: no-op *)
  | "abs", 1 ->
      let c = arg1 () in
      fun rt ->
        fast_burn rt.st;
        Vint (abs (as_int (c rt)))
  | "imin", 2 ->
      let c1 = arg1 () and c2 = arg2 () in
      fun rt ->
        fast_burn rt.st;
        let a = c1 rt in
        let b = c2 rt in
        Vint (min (as_int a) (as_int b))
  | "imax", 2 ->
      let c1 = arg1 () and c2 = arg2 () in
      fun rt ->
        fast_burn rt.st;
        let a = c1 rt in
        let b = c2 rt in
        Vint (max (as_int a) (as_int b))
  | _ -> (
      match (Builtins.eval_float1 fname, nargs) with
      | Some f, 1 ->
          let c = arg1 () in
          fun rt ->
            fast_burn rt.st;
            Vfloat (f (as_float (c rt)))
      | _ -> (
          match (Builtins.eval_float2 fname, nargs) with
          | Some f, 2 ->
              let c1 = arg1 () and c2 = arg2 () in
              fun rt ->
                fast_burn rt.st;
                let a = c1 rt in
                let b = c2 rt in
                Vfloat (f (as_float a) (as_float b))
          | _ -> (
              match List.assoc_opt fname ctx.cfuncs with
              | Some cf -> (
                  (* args evaluate left to right, as [List.map] does in
                     the reference; small arities skip the generic
                     mapper *)
                  match cargs with
                  | [] ->
                      fun rt ->
                        fast_burn rt.st;
                        cf.call rt.st rt.space []
                  | [ c1 ] ->
                      fun rt ->
                        fast_burn rt.st;
                        let a = c1 rt in
                        cf.call rt.st rt.space [ a ]
                  | [ c1; c2 ] ->
                      fun rt ->
                        fast_burn rt.st;
                        let a = c1 rt in
                        let b = c2 rt in
                        cf.call rt.st rt.space [ a; b ]
                  | [ c1; c2; c3 ] ->
                      fun rt ->
                        fast_burn rt.st;
                        let a = c1 rt in
                        let b = c2 rt in
                        let c = c3 rt in
                        cf.call rt.st rt.space [ a; b; c ]
                  | _ ->
                      fun rt ->
                        fast_burn rt.st;
                        let vs = evargs rt in
                        cf.call rt.st rt.space vs)
              | None ->
                  fun rt ->
                    fast_burn rt.st;
                    let _ = evargs rt in
                    error "unknown function %s" fname)))

(** {1 Statement compilation} *)

and compile_section ctx scope translate (s : section) : csec =
  {
    c_arr = s.arr;
    c_slot = Option.map fst (List.assoc_opt s.arr scope);
    c_esz =
      (match List.assoc_opt s.arr scope with
      | Some (_, (Tarray (t, _) | Tptr t)) -> csizeof ctx t
      | Some _ ->
          Error (Printf.sprintf "data clause on non-array %s" s.arr)
      | None ->
          (* unreachable: the unbound-clause error fires first *)
          Error (Printf.sprintf "data clause on non-array %s" s.arr));
    c_start = cexpr ctx scope s.start;
    c_len = cexpr ctx scope s.len;
    c_into =
      Option.map
        (fun (d, e) ->
          (d, Option.map fst (List.assoc_opt d scope), cexpr ctx scope e))
        s.into;
    c_translated = List.mem s.arr translate;
  }

(* The bind step of a declaration (no fuel: the reference burns in
   exec_stmt, then binds at block level without burning again). *)
and compile_bind ctx scope slot ty init : rt -> unit =
  match ty with
  | Tarray (elt, Some size_e) ->
      let csize = cexpr ctx scope size_e in
      let esz = csizeof ctx elt in
      fun rt ->
        let st = rt.st in
        let n = as_int (csize rt) in
        let k = esz_or_raise esz in
        let data = fast_alloc st rt.space (n * k) in
        let cell = fast_alloc st rt.space 1 in
        fast_store st cell (Vptr data);
        (* record the resolved size so the globals snapshot works *)
        rt.slots.(slot) <- { cell; vty = Tarray (elt, Some (Int_lit n)) }
  | Tstruct _ ->
      let ssz = csizeof ctx ty in
      fun rt ->
        let st = rt.st in
        let k = esz_or_raise ssz in
        let data = fast_alloc st rt.space k in
        let cell = fast_alloc st rt.space 1 in
        fast_store st cell (Vptr data);
        (* struct variables behave like pointers to their storage; the
           spare cell keeps the reference's heap layout *)
        rt.slots.(slot) <- { cell = data; vty = ty }
  | _ ->
      let cinit = Option.map (cexpr ctx scope) init in
      let co = ccoerce ty in
      fun rt ->
        let st = rt.st in
        let cell = fast_alloc st rt.space 1 in
        (match cinit with
        | Some c -> fast_store st cell (co (c rt))
        | None -> ());
        rt.slots.(slot) <- { cell; vty = ty }

and compile_block ctx scope nslots (block : block) : scode =
  let rec build scope acc = function
    | [] -> List.rev acc
    | Sdecl (ty, name, init) :: rest ->
        let slot = fresh_slot nslots in
        let bindc = compile_bind ctx scope slot ty init in
        let code rt =
          fast_burn rt.st;
          bindc rt;
          Normal
        in
        (* the binding scopes over the rest of this block only *)
        build ((name, (slot, ty)) :: scope) (code :: acc) rest
    | stmt :: rest ->
        build scope (compile_stmt ctx scope nslots stmt :: acc) rest
  in
  match build scope [] block with
  | [] -> fun _ -> Normal
  | [ code ] -> code
  | codes ->
      let codes = Array.of_list codes in
      let n = Array.length codes in
      fun rt ->
        let rec go i =
          if i = n then Normal
          else
            match (Array.unsafe_get codes i) rt with
            | Normal -> go (i + 1)
            | fl -> fl
        in
        go 0

and compile_stmt ctx scope nslots (stmt : stmt) : scode =
  match stmt with
  | Sexpr e ->
      let c = cexpr ctx scope e in
      fun rt ->
        fast_burn rt.st;
        ignore (c rt);
        Normal
  | Sassign (lv, rv) -> (
      let crv = cexpr ctx scope rv in
      let clv, ty = clvalue ctx scope lv in
      (* coercion dispatch inlined per target type: one fewer indirect
         call on the hottest statement form *)
      match ty with
      | Tint ->
          fun rt ->
            fast_burn rt.st;
            let v = crv rt in
            let addr = clv rt in
            check_deref rt addr;
            fast_store rt.st addr
              (match v with Vfloat f -> Vint (int_of_float f) | v -> v);
            Normal
      | Tfloat ->
          fun rt ->
            fast_burn rt.st;
            let v = crv rt in
            let addr = clv rt in
            check_deref rt addr;
            fast_store rt.st addr
              (match v with Vint n -> Vfloat (float_of_int n) | v -> v);
            Normal
      | _ ->
          fun rt ->
            fast_burn rt.st;
            let v = crv rt in
            let addr = clv rt in
            check_deref rt addr;
            fast_store rt.st addr v;
            Normal)
  | Sdecl _ ->
      (* a declaration binds only at block level (compile_block); bare
         under a pragma it is fuel-only, like the reference exec_stmt *)
      fun rt ->
        fast_burn rt.st;
        Normal
  | Sif (c, b1, b2) ->
      let cc = cexpr ctx scope c in
      let cb1 = compile_block ctx scope nslots b1 in
      let cb2 = compile_block ctx scope nslots b2 in
      fun rt ->
        fast_burn rt.st;
        if as_bool (cc rt) then cb1 rt else cb2 rt
  | Swhile (c, b) ->
      let cc = cexpr ctx scope c in
      let cb = compile_block ctx scope nslots b in
      fun rt ->
        fast_burn rt.st;
        let rec loop () =
          fast_burn rt.st;
          if as_bool (cc rt) then
            match cb rt with
            | Normal | Continue -> loop ()
            | Break -> Normal
            | Return _ as r -> r
          else Normal
        in
        loop ()
  | Sfor fl -> compile_for ctx scope nslots ~kernel:false fl
  | Sreturn None ->
      let r = Return Vundef in
      fun rt ->
        fast_burn rt.st;
        r
  | Sreturn (Some e) ->
      let c = cexpr ctx scope e in
      fun rt ->
        fast_burn rt.st;
        Return (c rt)
  | Sblock b ->
      let cb = compile_block ctx scope nslots b in
      fun rt ->
        fast_burn rt.st;
        cb rt
  | Sbreak ->
      fun rt ->
        fast_burn rt.st;
        Break
  | Scontinue ->
      fun rt ->
        fast_burn rt.st;
        Continue
  | Spragma (p, s) -> compile_pragma ctx scope nslots p s

(* A [for] loop.  A kernel's loop ([~kernel:true]: the [for] beneath an
   offload's [omp] pragmas) picks its driver at entry: [record_loop] in
   a profiled run, otherwise the same driver as any loop. *)
and compile_for ctx scope nslots ~kernel { index; lo; hi; step; body } : scode
    =
  (* [lo] is evaluated before the index is in scope *)
  let clo = cexpr ctx scope lo in
  let slot = fresh_slot nslots in
  let scope' = (index, (slot, Tint)) :: scope in
  let cbody = compile_block ctx scope' nslots body in
  (* literal bound/step fold away their per-iteration closure
     calls; evaluating an [Int_lit] has no observable effect, so
     hoisting it is parity-safe *)
  let generic () =
    let chi = cexpr ctx scope' hi in
    let cstep = cexpr ctx scope' step in
    fun rt ->
      fast_burn rt.st;
      let st = rt.st in
      let cell = fast_alloc st rt.space 1 in
      let lo_v = clo rt in
      rt.slots.(slot) <- { cell; vty = Tint };
      fast_store st cell lo_v;
      let rec loop () =
        fast_burn st;
        let i = as_int (fast_load st cell) in
        let hi_v = as_int (chi rt) in
        if i < hi_v then
          match cbody rt with
          | Normal | Continue ->
              let stepv = as_int (cstep rt) in
              fast_store st cell (Vint (i + stepv));
              loop ()
          | Break -> Normal
          | Return _ as r -> r
        else Normal
      in
      loop ()
  in
  let fast =
    match (hi, step) with
    | Int_lit hi_n, Int_lit step_n ->
        fun rt ->
          fast_burn rt.st;
          let st = rt.st in
          let cell = fast_alloc st rt.space 1 in
          let lo_v = clo rt in
          rt.slots.(slot) <- { cell; vty = Tint };
          fast_store st cell lo_v;
          let rec loop () =
            fast_burn st;
            let i = as_int (fast_load st cell) in
            if i < hi_n then
              match cbody rt with
              | Normal | Continue ->
                  fast_store st cell (Vint (i + step_n));
                  loop ()
              | Break -> Normal
              | Return _ as r -> r
            else Normal
          in
          loop ()
    | Var v, Int_lit step_n -> (
        (* [i < n] bounds: read the bound straight from its slot each
           iteration (same cell the generic closure reads).  One
           [assoc_opt] scan decides the specialization; an unbound
           bound variable takes the generic path, which raises the
           reference interpreter's error at the same point. *)
        match List.assoc_opt v scope' with
        | Some (hi_slot, _) ->
            fun rt ->
              fast_burn rt.st;
              let st = rt.st in
              let cell = fast_alloc st rt.space 1 in
              let lo_v = clo rt in
              rt.slots.(slot) <- { cell; vty = Tint };
              fast_store st cell lo_v;
              let rec loop () =
                fast_burn st;
                let i = as_int (fast_load st cell) in
                let hi_v =
                  as_int
                    (fast_load st (Array.unsafe_get rt.slots hi_slot).cell)
                in
                if i < hi_v then
                  match cbody rt with
                  | Normal | Continue ->
                      fast_store st cell (Vint (i + step_n));
                      loop ()
                  | Break -> Normal
                  | Return _ as r -> r
                else Normal
              in
              loop ()
        | None -> generic ())
    | _ -> generic ()
  in
  if not kernel then fast
  else
    let chi = cexpr ctx scope' hi and cstep = cexpr ctx scope' step in
    fun rt ->
      match rt.st.profile with
      | None -> fast rt
      | Some p -> record_loop p ~clo ~slot ~cbody ~chi ~cstep rt

(* An offload body: as [compile_stmt] compiles it, with the [for]
   beneath its [omp] pragmas compiled as a kernel loop *)
and compile_kernel ctx scope nslots stmt : scode =
  match stmt with
  | Spragma ((Omp_parallel_for | Omp_simd), s) ->
      let inner = compile_kernel ctx scope nslots s in
      fun rt ->
        fast_burn rt.st;
        inner rt
  | Sfor fl -> compile_for ctx scope nslots ~kernel:true fl
  | s -> compile_stmt ctx scope nslots s

and compile_pragma ctx scope nslots pragma stmt : scode =
  match pragma with
  | Omp_parallel_for | Omp_simd ->
      (* functional semantics of a parallel loop = sequential execution;
         the inner statement burns its own fuel, after this one's *)
      let inner = compile_stmt ctx scope nslots stmt in
      fun rt ->
        fast_burn rt.st;
        inner rt
  | Offload_wait e ->
      let c = cexpr ctx scope e in
      fun rt ->
        fast_burn rt.st;
        emit rt.st (Ev_wait (as_int (c rt))) [];
        Normal
  | Offload_transfer spec ->
      let c_ins =
        List.map
          (compile_section ctx scope spec.translate)
          (spec.ins @ spec.inouts)
      in
      let c_outs =
        List.map (compile_section ctx scope spec.translate) spec.outs
      in
      let c_signal = Option.map (cexpr ctx scope) spec.signal in
      fun rt ->
        fast_burn rt.st;
        let st = rt.st in
        let h0 = st.stats.cells_h2d and d0 = st.stats.cells_d2h in
        let sections = move_all rt c_ins c_outs in
        let h2d_cells = st.stats.cells_h2d - h0
        and d2h_cells = st.stats.cells_d2h - d0 in
        let signal = Option.map (fun c -> as_int (c rt)) c_signal in
        if h2d_cells > 0 || d2h_cells > 0 || Option.is_some signal then
          emit st (Ev_transfer { h2d_cells; d2h_cells; signal }) sections;
        Normal
  | Offload spec -> compile_offload ctx scope nslots spec stmt

and compile_offload ctx scope nslots spec stmt : scode =
  let sec = compile_section ctx scope spec.translate in
  let c_in = List.map sec (spec.ins @ spec.inouts) in
  let c_outs = List.map sec spec.outs in
  let c_rebind = List.map sec (spec.ins @ spec.inouts @ spec.outs) in
  let c_nocopy =
    List.map
      (fun name -> (name, Option.map fst (List.assoc_opt name scope)))
      spec.nocopy
  in
  let c_phase4 = List.map sec (spec.outs @ spec.inouts) in
  let c_wait = Option.map (cexpr ctx scope) spec.wait in
  let cbody = compile_kernel ctx scope nslots stmt in
  fun rt ->
    fast_burn rt.st;
    if rt.space = Mic then error "nested offload";
    let st = rt.st in
    st.stats.offloads <- st.stats.offloads + 1;
    (* 1. copy in/inout sections host -> device *)
    let h0 = st.stats.cells_h2d in
    let sections = move_sections st ~name:section_name (transfer_in rt) c_in in
    let in_cells = st.stats.cells_h2d - h0 in
    if in_cells > 0 then
      emit st
        (Ev_transfer { h2d_cells = in_cells; d2h_cells = 0; signal = None })
        sections;
    (* out-only arrays need a device buffer even without an in() copy *)
    List.iter (ensure_shadow rt) c_outs;
    (* 2. rebind clause arrays (without into) to their MIC shadows *)
    let rebinds =
      List.fold_left
        (fun acc cs ->
          if Option.is_some cs.c_into || List.mem_assoc cs.c_arr acc then
            acc
          else
            let b =
              slot_binding rt ~clause:"offload data" cs.c_arr cs.c_slot
            in
            let cpu_base = as_ptr (fast_load st b.cell) in
            match Hashtbl.find_opt st.shadows cpu_base.ofs with
            | None -> acc (* out-only array: shadow created above *)
            | Some mic_base ->
                let cell = fast_alloc st Cpu 1 in
                fast_store st cell (Vptr mic_base);
                (cs.c_arr, (Option.get cs.c_slot, { cell; vty = b.vty }))
                :: acc)
        [] c_rebind
    in
    (* nocopy(): rebind to an existing shadow without any copy; the
       [Ev_resident] cell count mirrors the reference exactly (runtime
       binding vtys carry resolved array sizes in both engines) *)
    let nocopy_rebinds, resident_cells =
      List.fold_left
        (fun ((acc, cells) as unchanged) (name, slot) ->
          if List.mem_assoc name acc then unchanged
          else
            let b = slot_binding rt ~clause:"nocopy()" name slot in
            let cpu_base = as_ptr (fast_load st b.cell) in
            match Hashtbl.find_opt st.shadows cpu_base.ofs with
            | None -> error "nocopy(%s): no resident device copy" name
            | Some mic_base ->
                let n =
                  match b.vty with
                  | Tarray (elt, Some (Int_lit k)) -> k * sizeof st elt
                  | _ -> 0
                in
                let acc =
                  if List.mem_assoc name rebinds then acc
                  else begin
                    let cell = fast_alloc st Cpu 1 in
                    fast_store st cell (Vptr mic_base);
                    (name, (Option.get slot, { cell; vty = b.vty })) :: acc
                  end
                in
                (acc, cells + n))
        ([], 0) c_nocopy
    in
    if c_nocopy <> [] then emit st (Ev_resident { cells = resident_cells }) [];
    let rebinds = rebinds @ nocopy_rebinds in
    let saved =
      List.map
        (fun (_, (k, nb)) ->
          let old = rt.slots.(k) in
          rt.slots.(k) <- nb;
          (k, old))
        rebinds
    in
    (* 3. run the body in MIC mode *)
    let fuel0 = st.fuel in
    let fl = cbody { rt with space = Mic } in
    (* the rebinds scope over the body only: the out/inout copies below
       resolve sections against the host bindings again *)
    List.iter (fun (k, old) -> rt.slots.(k) <- old) saved;
    let work = fuel0 - st.fuel in
    let wait = Option.map (fun c -> as_int (c rt)) c_wait in
    emit st (Ev_kernel { work; wait }) [];
    (* 4. copy out/inout sections device -> host *)
    let d0 = st.stats.cells_d2h in
    let sections =
      move_sections st ~name:section_name (transfer_out rt) c_phase4
    in
    let out_cells = st.stats.cells_d2h - d0 in
    if out_cells > 0 then
      emit st
        (Ev_transfer { h2d_cells = 0; d2h_cells = out_cells; signal = None })
        sections;
    match fl with
    | Normal -> Normal
    | Return _ | Break | Continue -> error "control flow escaped offload"

(** {1 Functions and whole programs} *)

let compile_func ctx (f : func) : state -> space -> value list -> value =
  let nslots = ref 0 in
  let pspecs =
    List.map
      (fun p ->
        let slot = fresh_slot nslots in
        (* array params decay to pointers *)
        let vty = match p.pty with Tarray (t, _) -> Tptr t | t -> t in
        (p.pname, slot, vty))
      f.params
  in
  (* declaration order: List.assoc picks the first of two same-named
     parameters, as the reference's reverse-order Hashtbl binds do *)
  let scope = List.map (fun (n, s, t) -> (n, (s, t))) pspecs in
  let body = compile_block ctx scope nslots f.body in
  let binder = List.map (fun (_, s, t) -> (s, t)) pspecs in
  let total = !nslots in
  fun st space vs ->
    let slots = Array.make total dummy_binding in
    (* List.map2 so an arity mismatch raises the same
       Invalid_argument the reference's parameter zip does *)
    ignore
      (List.map2
         (fun (slot, vty) v ->
           let cell = fast_alloc st space 1 in
           fast_store st cell v;
           slots.(slot) <- { cell; vty })
         binder vs);
    let rt = { st; space; slots } in
    match body rt with
    | Return v -> v
    | Normal -> Vundef
    | Break | Continue -> error "break/continue outside loop"

type compiled = {
  exec : profile:profile option -> fuel:int -> (outcome, string) result;
}

let uncompiled _ _ _ = error "function called before compilation finished"

let compile (prog : program) : compiled =
  let cstructs =
    List.filter_map
      (function Gstruct s -> Some (s.sname, s) | _ -> None)
      prog
  in
  let cfuncs =
    List.filter_map
      (function
        | Gfunc f -> Some (f.fname, { src = f; call = uncompiled })
        | _ -> None)
      prog
  in
  let ctx = { cstructs; cfuncs } in
  (* two-phase: compile every body against the table of stubs, then the
     patched closures give recursion and forward calls direct targets.
     [main]'s globals-free copy runs only when the program calls [main]
     itself, so it compiles on that first call; two domains sharing
     this program may both compile it and install equal closures. *)
  List.iter
    (fun (name, cf) ->
      if name = "main" then
        cf.call <-
          (fun st space vs ->
            let call = compile_func ctx cf.src in
            cf.call <- call;
            call st space vs)
      else cf.call <- compile_func ctx cf.src)
    cfuncs;
  (* globals: initializers see no other bindings; each declaration
     (duplicates included) allocates storage in declaration order *)
  let g_nslots = ref 0 in
  let gdecls =
    List.filter_map
      (function
        | Gvar (ty, name, init) ->
            Some (ty, name, init, fresh_slot g_nslots)
        | _ -> None)
      prog
  in
  let gcodes =
    List.map
      (fun (ty, name, init, slot) ->
        (name, slot, compile_bind ctx [] slot ty init))
      gdecls
  in
  (* declaration order, so the first of two same-named globals wins *)
  let gscope =
    List.map (fun (ty, name, _, slot) -> (name, (slot, ty))) gdecls
  in
  (* main's entry activation sees the globals (and only main does);
     its locals extend the same slot array.  Recursive calls to main
     go through the globals-free version above. *)
  let main_entry =
    match List.assoc_opt "main" cfuncs with
    | None -> None
    | Some cf -> Some (compile_block ctx gscope g_nslots cf.src.body)
  in
  let total_slots = !g_nslots in
  let exec ~profile ~fuel =
    let st = init_state ?profile prog in
    st.fuel <- fuel;
    try
      let slots = Array.make (max total_slots 1) dummy_binding in
      let rt = { st; space = Cpu; slots } in
      List.iter (fun (_, _, code) -> code rt) gcodes;
      match main_entry with
      | None -> Error "no main function"
      | Some body ->
          let fl = body rt in
          let ret = match fl with Return v -> v | _ -> Vundef in
          Ok
            {
              ret;
              output = Buffer.contents st.output;
              stats = st.stats;
              events = List.rev st.events;
              globals =
                List.map
                  (fun (name, slot, _) ->
                    (name, snapshot_binding st slots.(slot)))
                  gcodes;
              work = fuel - st.fuel;
            }
    with
    | Runtime_error msg -> Error msg
    | Out_of_fuel -> Error "out of fuel"
  in
  { exec }

let exec ?(fuel = default_fuel) c = c.exec ~profile:None ~fuel

(** {1 Compiled-program cache}

    Keyed by structural equality of the AST, domain-local (like
    {!Transforms.Util.fresh}): each pool domain gets its own table, so
    parallel sweeps share compiled programs without locks, and repeated
    runs of one program compile it once.  Pool helpers persist across
    calls, so a helper's table outlives any one sweep; programs that
    run once ([Check.check_program]'s) bypass it with {!compile}. *)

module Cache = Hashtbl.Make (struct
  type t = program

  (* the AST is immutable, so physical equality short-circuits the
     structural walk for the common re-run-the-same-value case *)
  let equal a b = a == b || equal_program a b
  let hash p = Hashtbl.hash_param 200 800 p
end)

let cache_limit = 512

let cache : compiled Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create 64)

let compiles : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* One-entry memo in front of the table: re-running the physically
   same AST (bench loops, check's repeated runs) skips even the hash
   walk over the program. *)
let last_hit : (program * compiled) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cached_compile prog =
  let last = Domain.DLS.get last_hit in
  match !last with
  | Some (p, c) when p == prog -> c
  | _ ->
      let tbl = Domain.DLS.get cache in
      let c =
        match Cache.find_opt tbl prog with
        | Some c -> c
        | None ->
            let c = compile prog in
            incr (Domain.DLS.get compiles);
            if Cache.length tbl >= cache_limit then Cache.reset tbl;
            Cache.add tbl prog c;
            c
      in
      last := Some (prog, c);
      c

let compile_count () = !(Domain.DLS.get compiles)

let run_compiled ?(fuel = default_fuel) prog =
  (cached_compile prog).exec ~profile:None ~fuel

let run_profiled ?(fuel = default_fuel) prog =
  let p = new_profile fuel in
  Result.map
    (fun o -> (o, details p))
    ((cached_compile prog).exec ~profile:(Some p) ~fuel)

(** Engine-dispatched entry point: the one call sites thread
    [?engine] through. *)
let run ?(engine = Compiled) ?fuel prog =
  match engine with
  | Reference -> Interp.run ?fuel prog
  | Compiled -> run_compiled ?fuel prog

(** {1 Shared source-keyed cache}

    The per-domain table above suits sweeps where every domain replays
    the same ASTs, but a request daemon sees {e sources} (strings off
    the wire) and wants parse-once/compile-once across {e all}
    requests, whichever domain executes them.  This cache is keyed by
    the raw source, guarded by a mutex so it can be shared, and caches
    front-end {e failures} too: a repeatedly-submitted malformed source
    costs one parse, not one per request.

    A [compiled] value is safe to share across domains: [exec] builds
    a fresh interpreter state per call, and compilation fully publishes
    the closure graph before the value escapes the lock. *)

module Source_cache = struct
  type error = Parse_error of string | Type_error of string

  type entry = (program * compiled, error) result

  type t = {
    lock : Mutex.t;
    table : (string, entry) Hashtbl.t;
    limit : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(limit = 512) () =
    {
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      limit;
      hits = 0;
      misses = 0;
    }

  let build src : entry =
    match Parser.program_of_string src with
    | Error e -> Error (Parse_error e)
    | Ok prog -> (
        match Typecheck.check_program prog with
        | Error e -> Error (Type_error e)
        | Ok _ -> Ok (prog, compile prog))

  let get t src =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match Hashtbl.find_opt t.table src with
        | Some e ->
            t.hits <- t.hits + 1;
            e
        | None ->
            t.misses <- t.misses + 1;
            let e = build src in
            if Hashtbl.length t.table >= t.limit then Hashtbl.reset t.table;
            Hashtbl.add t.table src e;
            e)

  let hits t = t.hits
  let misses t = t.misses
end
