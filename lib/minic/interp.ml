(** Reference interpreter for MiniC with {e two} address spaces.

    The host (CPU) and the coprocessor (MIC) have separate heaps, as on
    a real PCIe-attached Xeon Phi.  Offload bodies execute in MIC mode:
    dereferencing a CPU pointer there is a runtime error, so a
    transformation that forgets to transfer data produces a hard failure
    rather than silently reading host memory.  This is what the
    semantics-preservation property tests run against. *)

open Ast

type space = Cpu | Mic

let space_name = function Cpu -> "CPU" | Mic -> "MIC"

type addr = { space : space; ofs : int }

type value =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vptr of addr
  | Vundef

type heap = { mutable cells : value array; mutable next : int }

(** Counters observable by tests: they let unit tests assert that e.g.
    streaming moves the same number of cells in more, smaller transfers,
    or that offload merging reduces [offloads]. *)
type stats = {
  mutable offloads : int;  (** kernel launches (offload regions entered) *)
  mutable transfers : int;  (** discrete transfer operations *)
  mutable cells_h2d : int;
  mutable cells_d2h : int;
  mutable mic_alloc_cells : int;
}

(** Offload-level event trace, in program order.  The replay layer
    ({!Runtime.Replay}) reconstructs the transfer/compute schedule the
    program would produce on the machine — asynchronous transfers carry
    their [signal] tag, kernels their [wait] tag, so the pipelining
    written into the source (Figure 5(b)) is recoverable. *)
type event =
  | Ev_transfer of { h2d_cells : int; d2h_cells : int; signal : int option }
  | Ev_wait of int
  | Ev_resident of { cells : int }
  | Ev_kernel of { work : int; wait : int option }
      (** [work] = statements executed inside the offload body *)

(** {1 Per-event profile}

    An opt-in run ({!run_profiled}) records one [detail] beside every
    event it appends.  The switch is the run's own [state.profile], so
    runs on other domains are unaffected, and a run without it
    allocates nothing for it. *)

type loop_profile = {
  lp_first : int;  (** the loop's first index *)
  lp_iterations : int array;
      (** fuel of each completed iteration, in order: its bound check,
          body and step *)
}

type detail = {
  d_fuel : int;  (** fuel consumed when the event was appended *)
  d_sections : (string * int) list;
      (** [Ev_transfer]: each section's array and the cells it moved
          between the two heaps, in clause order *)
  d_loop : loop_profile option;
      (** [Ev_kernel] whose offload body is a [for] under [omp]
          pragmas: that loop *)
}

type profile = {
  budget : int;  (** the run's fuel, so [d_fuel] counts consumption *)
  mutable details : detail list;  (** reversed *)
  mutable kernel_loop : loop_profile option;
      (** the running kernel's loop, until its [Ev_kernel] takes it *)
}

type state = {
  cpu : heap;
  mic : heap;
  structs : (string, struct_def) Hashtbl.t;
      (** first definition wins, as the old declaration-order assoc
          list resolved duplicates *)
  funcs : (string, func) Hashtbl.t;  (** first definition wins *)
  output : Buffer.t;
  mutable fuel : int;
  stats : stats;
  mutable events : event list;  (** reversed *)
  shadows : (int, addr) Hashtbl.t;
      (** CPU base offset -> MIC shadow buffer, reused across offloads *)
  profile : profile option;  (** [Some] only in a profiled run *)
}

(** Variable bindings: name -> (cell address, static type). *)
type binding = { cell : addr; vty : ty }

(** One function activation's environment.  Scoping uses [Hashtbl]'s
    own stack semantics: [Hashtbl.add] shadows, [Hashtbl.remove]
    unshadows, so block entry/exit is push/pop per declared name and
    every lookup is O(1) — the interpreter's hottest operation, which
    the old innermost-first assoc list made O(live bindings). *)
type frame = (string, binding) Hashtbl.t

exception Runtime_error of string
exception Out_of_fuel

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

external format_float : string -> float -> string = "caml_format_float"
(* The runtime primitive Printf itself uses for [%g]; calling it
   directly skips the CamlinternalFormat interpreter (~2x faster per
   print) while producing byte-identical text. *)

let lookup (frame : frame) v = Hashtbl.find_opt frame v
let bind (frame : frame) name b = Hashtbl.add frame name b
let unbind (frame : frame) name = Hashtbl.remove frame name

(** Typed lookup for data-clause variables: a section naming an
    unbound array must surface as a located runtime error (the
    differential harness runs untypechecked rewrites), never as a bare
    [Not_found] escaping {!run}. *)
let clause_binding frame ~clause arr =
  match lookup frame arr with
  | Some b -> b
  | None -> error "%s clause on unbound variable %s" clause arr

(* 256 words keeps the initial arrays in the minor heap (larger arrays
   are allocated directly on the major heap, which costs ~1us per run
   for short programs); [alloc] doubles capacity on demand. *)
let new_heap () = { cells = Array.make 256 Vundef; next = 0 }

let heap_of st = function Cpu -> st.cpu | Mic -> st.mic

let alloc st space n =
  let h = heap_of st space in
  let base = h.next in
  let needed = base + n in
  if needed > Array.length h.cells then begin
    let cap = max needed (2 * Array.length h.cells) in
    let cells = Array.make cap Vundef in
    Array.blit h.cells 0 cells 0 h.next;
    h.cells <- cells
  end;
  h.next <- needed;
  if space = Mic then st.stats.mic_alloc_cells <- st.stats.mic_alloc_cells + n;
  { space; ofs = base }

(* The explicit range check against [h.next] subsumes the array bounds
   check ([next <= length] is an allocator invariant), so the access
   itself is unsafe_get/set — [load]/[store] are the hottest operations
   in both evaluation engines. *)
let load st addr =
  let h = heap_of st addr.space in
  if addr.ofs < 0 || addr.ofs >= h.next then
    error "load out of bounds at %s:%d" (space_name addr.space) addr.ofs;
  Array.unsafe_get h.cells addr.ofs

let store st addr v =
  let h = heap_of st addr.space in
  if addr.ofs < 0 || addr.ofs >= h.next then
    error "store out of bounds at %s:%d" (space_name addr.space) addr.ofs;
  Array.unsafe_set h.cells addr.ofs v

(** {1 Type sizes, in heap cells} *)

let rec sizeof st ty =
  match ty with
  | Tvoid -> 0
  | Tint | Tfloat | Tbool | Tptr _ -> 1
  | Tarray (t, Some (Int_lit n)) -> n * sizeof st t
  | Tarray (_, _) -> error "sizeof of unsized array"
  | Tstruct name -> (
      match Hashtbl.find_opt st.structs name with
      | Some s ->
          List.fold_left (fun acc (t, _) -> acc + sizeof st t) 0 s.sfields
      | None -> error "unknown struct %s" name)

let field_offset st sname fname =
  match Hashtbl.find_opt st.structs sname with
  | None -> error "unknown struct %s" sname
  | Some s ->
      let rec loop acc = function
        | [] -> error "struct %s has no field %s" sname fname
        | (t, f) :: rest ->
            if String.equal f fname then (acc, t)
            else loop (acc + sizeof st t) rest
      in
      loop 0 s.sfields

(** {1 Value helpers} *)

let as_int = function
  | Vint n -> n
  | Vbool b -> if b then 1 else 0
  | Vfloat f -> int_of_float f
  | Vptr _ -> error "pointer used as int"
  | Vundef -> error "use of undefined value (as int)"

let as_float = function
  | Vfloat f -> f
  | Vint n -> float_of_int n
  | Vbool _ -> error "bool used as float"
  | Vptr _ -> error "pointer used as float"
  | Vundef -> error "use of undefined value (as float)"

let as_bool = function
  | Vbool b -> b
  | Vint n -> n <> 0
  | _ -> error "non-boolean condition"

let as_ptr = function
  | Vptr a -> a
  | Vundef -> error "use of undefined value (as pointer)"
  | _ -> error "non-pointer dereferenced"

(** {1 Static types at runtime}

    Address arithmetic needs element sizes, so the evaluator tracks the
    static type of expressions alongside values, using the bindings. *)

let rec static_ty st frame expr =
  match expr with
  | Int_lit _ -> Tint
  | Float_lit _ -> Tfloat
  | Bool_lit _ -> Tbool
  | Var v -> (
      match lookup frame v with
      | Some b -> b.vty
      | None -> error "unbound variable %s" v)
  | Index (a, _) -> (
      match static_ty st frame a with
      | Tarray (t, _) | Tptr t -> t
      | _ -> error "indexing non-array")
  | Field (e, f) -> (
      match static_ty st frame e with
      | Tstruct s -> snd (field_offset st s f)
      | _ -> error "field access on non-struct")
  | Arrow (e, f) -> (
      match static_ty st frame e with
      | Tptr (Tstruct s) | Tarray (Tstruct s, _) ->
          snd (field_offset st s f)
      | _ -> error "-> on non-struct pointer")
  | Deref e -> (
      match static_ty st frame e with
      | Tptr t | Tarray (t, _) -> t
      | _ -> error "dereferencing non-pointer")
  | Addr e -> Tptr (static_ty st frame e)
  | Unop (Neg, e) -> static_ty st frame e
  | Unop (Not, _) -> Tbool
  | Binop ((Add | Sub | Mul | Div), a, b) -> (
      match (static_ty st frame a, static_ty st frame b) with
      | Tint, Tint -> Tint
      | (Tptr _ | Tarray _), _ -> (
          match static_ty st frame a with
          | Tarray (t, _) -> Tptr t
          | t -> t)
      | _ -> Tfloat)
  | Binop (Mod, _, _) -> Tint
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> Tbool
  | Call (fname, _) -> (
      match Builtins.find fname with
      | Some s -> s.ret
      | None -> (
          match Hashtbl.find_opt st.funcs fname with
          | Some f -> f.ret
          | None -> error "unknown function %s" fname))
  | Cast (t, _) -> t

(** {1 Evaluation} *)

type mode = { space : space }
(** [space] is where new allocations go and which pointers may be
    dereferenced (MIC mode may not touch CPU memory). *)

let check_deref (mode : mode) (addr : addr) =
  if mode.space = Mic && addr.space = Cpu then
    error
      "MIC code dereferenced CPU address %d: data was not transferred"
      addr.ofs

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(** {1 Event emission}

    Shared with the compiled evaluator, so both engines append the same
    events and, in a profiled run, the same details. *)

(* Append [ev]; in a profiled run, with its detail: [sections] for a
   transfer, and for a kernel the loop its body recorded. *)
let emit st ev sections =
  st.events <- ev :: st.events;
  match st.profile with
  | None -> ()
  | Some p ->
      let loop =
        match ev with
        | Ev_kernel _ ->
            let l = p.kernel_loop in
            p.kernel_loop <- None;
            l
        | _ -> None
      in
      p.details <-
        { d_fuel = p.budget - st.fuel; d_sections = sections; d_loop = loop }
        :: p.details

let moved_cells st = st.stats.cells_h2d + st.stats.cells_d2h

(* Apply [move] to each section in order; in a profiled run, return
   each section's array and the cells it moved, else [].  The one
   branch is per transfer, never per section. *)
let move_sections st ~name move sections =
  match st.profile with
  | None ->
      List.iter move sections;
      []
  | Some _ ->
      List.map
        (fun s ->
          let before = moved_cells st in
          move s;
          (name s, moved_cells st - before))
        sections

(** {1 Transfer machinery}

    Shared verbatim by the compiled evaluator ({!Compile_eval}) — both
    engines must move exactly the same cells and count them in the same
    [stats] fields. *)

let copy_cells st ~(src : addr) ~(dst : addr) n =
  let hs = heap_of st src.space and hd = heap_of st dst.space in
  if src.ofs + n > hs.next then
    error "transfer source out of bounds (%d cells at %s:%d)" n
      (space_name src.space) src.ofs;
  if dst.ofs + n > hd.next then
    error "transfer destination out of bounds (%d cells at %s:%d)" n
      (space_name dst.space) dst.ofs;
  Array.blit hs.cells src.ofs hd.cells dst.ofs n;
  st.stats.transfers <- st.stats.transfers + 1;
  if src.space = Cpu && dst.space = Mic then
    st.stats.cells_h2d <- st.stats.cells_h2d + n
  else if src.space = Mic && dst.space = Cpu then
    st.stats.cells_d2h <- st.stats.cells_d2h + n

(* Shadow MIC buffer for a CPU array (for clauses without into()).  The
   shadow covers the array from index 0 so device indexing matches host
   indexing; it is sized on first use and grown on demand. *)
let shadow_for st ~cpu_base ~cells_needed =
  match Hashtbl.find_opt st.shadows cpu_base.ofs with
  | Some mic_base ->
      let h = heap_of st Mic in
      if mic_base.ofs + cells_needed <= h.next then mic_base
      else begin
        (* grow: allocate a bigger shadow; stale data is re-copied by
           the in() clauses, which is the LEO behaviour *)
        let bigger = alloc st Mic cells_needed in
        Hashtbl.replace st.shadows cpu_base.ofs bigger;
        bigger
      end
  | None ->
      let mic_base = alloc st Mic cells_needed in
      Hashtbl.add st.shadows cpu_base.ofs mic_base;
      mic_base

(* The delta-table pointer translation of Section V-B, as transfer
   semantics: after copying a section, pointer-valued cells that point
   into the source range are rebased onto the destination copy (the
   delta is [dst.ofs - src.ofs]).  Without this, a pointer-based
   structure arrives on the device with host addresses and faults on
   first dereference — exactly the problem the paper's augmented
   pointers solve. *)
let translate_cells st ~(src : addr) ~(dst : addr) n =
  let hd = heap_of st dst.space in
  for i = dst.ofs to dst.ofs + n - 1 do
    match hd.cells.(i) with
    | Vptr p
      when p.space = src.space && p.ofs >= src.ofs && p.ofs < src.ofs + n ->
        hd.cells.(i) <-
          Vptr { space = dst.space; ofs = dst.ofs + (p.ofs - src.ofs) }
    | _ -> ()
  done

(* Implicit conversions at assignment / initialization. *)
let coerce ty v =
  match (ty, v) with
  | Tint, Vfloat f -> Vint (int_of_float f)
  | Tfloat, Vint n -> Vfloat (float_of_int n)
  | _ -> v

(* Result of running a block *)
type flow = Normal | Break | Continue | Return of value

let rec eval st mode frame expr : value =
  match expr with
  | Int_lit n -> Vint n
  | Float_lit f -> Vfloat f
  | Bool_lit b -> Vbool b
  | Var v -> (
      match lookup frame v with
      | Some b -> load st b.cell
      | None -> error "unbound variable %s" v)
  | Index _ | Field _ | Arrow _ | Deref _ ->
      let addr, ty = eval_lvalue st mode frame expr in
      check_deref mode addr;
      (match ty with
      | Tarray (_, _) -> Vptr addr (* arrays decay to element pointer *)
      | _ -> load st addr)
  | Addr e ->
      let addr, _ = eval_lvalue st mode frame e in
      Vptr addr
  | Unop (Neg, e) -> (
      match eval st mode frame e with
      | Vint n -> Vint (-n)
      | Vfloat f -> Vfloat (-.f)
      | _ -> error "- on non-numeric value")
  | Unop (Not, e) -> Vbool (not (as_bool (eval st mode frame e)))
  | Binop (op, a, b) -> eval_binop st mode frame op a b
  | Call (fname, args) -> eval_call st mode frame fname args
  | Cast (t, e) -> (
      let v = eval st mode frame e in
      match (t, v) with
      | Tint, Vfloat f -> Vint (int_of_float f)
      | Tint, Vint n -> Vint n
      | Tint, Vbool b -> Vint (if b then 1 else 0)
      | Tfloat, (Vint _ | Vfloat _) -> Vfloat (as_float v)
      | Tbool, v -> Vbool (as_bool v)
      | Tptr _, (Vptr _ as p) -> p
      | _ -> error "unsupported cast at runtime")

and eval_binop st mode frame op a b =
  let va = eval st mode frame a in
  let vb = eval st mode frame b in
  let arith fi ff =
    match (va, vb) with
    | Vundef, _ | _, Vundef -> error "use of undefined value in arithmetic"
    | Vint x, Vint y -> Vint (fi x y)
    | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
        Vfloat (ff (as_float va) (as_float vb))
    | Vptr p, Vint n -> (
        (* pointer arithmetic scaled by element size *)
        let elt =
          match static_ty st frame a with
          | Tptr t | Tarray (t, _) -> t
          | _ -> error "pointer arithmetic on non-pointer"
        in
        let k = sizeof st elt in
        match op with
        | Add -> Vptr { p with ofs = p.ofs + (n * k) }
        | Sub -> Vptr { p with ofs = p.ofs - (n * k) }
        | _ -> error "invalid pointer arithmetic")
    | _ -> error "arithmetic on non-numeric values"
  in
  let cmp f_int f_float =
    match (va, vb) with
    | Vundef, _ | _, Vundef -> error "use of undefined value in comparison"
    | Vint x, Vint y -> Vbool (f_int (compare x y) 0)
    | (Vfloat _ | Vint _), (Vfloat _ | Vint _) ->
        Vbool (f_float (compare (as_float va) (as_float vb)) 0)
    | Vptr x, Vptr y -> Vbool (f_int (compare x y) 0)
    | Vbool x, Vbool y -> Vbool (f_int (compare x y) 0)
    | _ -> error "comparison of incompatible values"
  in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Div -> (
      match (va, vb) with
      | Vint _, Vint 0 -> error "division by zero"
      | Vint x, Vint y -> Vint (x / y)
      | _ -> Vfloat (as_float va /. as_float vb))
  | Mod -> (
      match (va, vb) with
      | Vint _, Vint 0 -> error "modulo by zero"
      | Vint x, Vint y -> Vint (x mod y)
      | _ -> error "%% on non-int values")
  | Eq -> cmp ( = ) ( = )
  | Ne -> cmp ( <> ) ( <> )
  | Lt -> cmp ( < ) ( < )
  | Le -> cmp ( <= ) ( <= )
  | Gt -> cmp ( > ) ( > )
  | Ge -> cmp ( >= ) ( >= )
  | And -> Vbool (as_bool va && as_bool vb)
  | Or -> Vbool (as_bool va || as_bool vb)

and eval_lvalue st mode frame expr : addr * ty =
  match expr with
  | Var v -> (
      match lookup frame v with
      | Some b -> (b.cell, b.vty)
      | None -> error "unbound variable %s" v)
  | Index (a, i) -> (
      let n = as_int (eval st mode frame i) in
      let base_ty = static_ty st frame a in
      match base_ty with
      | Tarray (elt, _) ->
          (* the variable's cell holds a pointer to the array data *)
          let base = as_ptr (eval st mode frame a) in
          check_deref mode base;
          ({ base with ofs = base.ofs + (n * sizeof st elt) }, elt)
      | Tptr elt ->
          let base = as_ptr (eval st mode frame a) in
          check_deref mode base;
          ({ base with ofs = base.ofs + (n * sizeof st elt) }, elt)
      | _ -> error "indexing non-array")
  | Field (e, f) -> (
      let addr, ty = eval_lvalue st mode frame e in
      match ty with
      | Tstruct s ->
          let ofs, fty = field_offset st s f in
          ({ addr with ofs = addr.ofs + ofs }, fty)
      | _ -> error "field access on non-struct")
  | Arrow (e, f) -> (
      let p = as_ptr (eval st mode frame e) in
      check_deref mode p;
      match static_ty st frame e with
      | Tptr (Tstruct s) | Tarray (Tstruct s, _) ->
          let ofs, fty = field_offset st s f in
          ({ p with ofs = p.ofs + ofs }, fty)
      | _ -> error "-> on non-struct pointer")
  | Deref e -> (
      let p = as_ptr (eval st mode frame e) in
      check_deref mode p;
      match static_ty st frame e with
      | Tptr t | Tarray (t, _) -> (p, t)
      | _ -> error "dereferencing non-pointer")
  | _ -> error "not an lvalue"

and eval_call st mode frame fname args =
  burn st;
  let vs = List.map (eval st mode frame) args in
  match (fname, vs) with
  | "print_int", [ v ] ->
      Buffer.add_string st.output (string_of_int (as_int v));
      Buffer.add_char st.output '\n';
      Vundef
  | "print_float", [ v ] ->
      Buffer.add_string st.output (format_float "%.6g" (as_float v));
      Buffer.add_char st.output '\n';
      Vundef
  | "print_bool", [ v ] ->
      Buffer.add_string st.output (if as_bool v then "true" else "false");
      Buffer.add_char st.output '\n';
      Vundef
  | "malloc", [ v ] -> Vptr (alloc st Cpu (as_int v))
  | "mic_malloc", [ v ] -> Vptr (alloc st Mic (as_int v))
  | ("free" | "mic_free"), [ _ ] -> Vundef (* bump allocator: no-op *)
  | "abs", [ v ] -> Vint (abs (as_int v))
  | "imin", [ a; b ] -> Vint (min (as_int a) (as_int b))
  | "imax", [ a; b ] -> Vint (max (as_int a) (as_int b))
  | _ -> (
      match (Builtins.eval_float1 fname, vs) with
      | Some f, [ v ] -> Vfloat (f (as_float v))
      | _ -> (
          match (Builtins.eval_float2 fname, vs) with
          | Some f, [ a; b ] -> Vfloat (f (as_float a) (as_float b))
          | _ -> (
              match Hashtbl.find_opt st.funcs fname with
              | Some f -> call_user st mode f vs
              | None -> error "unknown function %s" fname)))

and call_user st mode (f : func) vs =
  (* a call opens a fresh activation: parameters only, no caller (or
     global) bindings are visible in the body *)
  let frame : frame = Hashtbl.create 16 in
  let params =
    List.map2
      (fun p v ->
        let cell = alloc st mode.space 1 in
        store st cell v;
        (* array params decay to pointers *)
        let vty =
          match p.pty with Tarray (t, _) -> Tptr t | t -> t
        in
        (p.pname, { cell; vty }))
      f.params vs
  in
  (* bind in reverse so, under Hashtbl.add shadowing, the first of two
     same-named parameters wins — as the old assoc list resolved it *)
  List.iter (fun (name, b) -> bind frame name b) (List.rev params);
  match exec_block st mode frame f.body with
  | Return v -> v
  | Normal -> Vundef
  | Break | Continue -> error "break/continue outside loop"

and exec_block st mode frame block : flow =
  let declared = ref [] in
  let rec loop = function
    | [] -> Normal
    | stmt :: rest -> (
        match exec_stmt st mode frame stmt with
        | (Break | Continue | Return _) as fl -> fl
        | Normal -> (
            match stmt with
            | Sdecl (ty, name, init) ->
                let b = bind_decl st mode frame ty name init in
                bind frame name b;
                declared := name :: !declared;
                loop rest
            | _ -> loop rest))
  in
  let fl = loop block in
  (* pop this block's bindings on every exit path (Runtime_error /
     Out_of_fuel abort the whole run, so they need no unwinding) *)
  List.iter (unbind frame) !declared;
  fl

and bind_decl st mode frame ty _name init =
  match ty with
  | Tarray (elt, Some size_e) ->
      let n = as_int (eval st mode frame size_e) in
      let data = alloc st mode.space (n * sizeof st elt) in
      let cell = alloc st mode.space 1 in
      store st cell (Vptr data);
      (* record the resolved size so sizeof works later *)
      { cell; vty = Tarray (elt, Some (Int_lit n)) }
  | Tstruct _ ->
      let data = alloc st mode.space (sizeof st ty) in
      let cell = alloc st mode.space 1 in
      store st cell (Vptr data);
      ignore init;
      (* struct variables behave like pointers to their storage *)
      { cell = data; vty = ty }
  | _ ->
      let cell = alloc st mode.space 1 in
      (match init with
      | Some e -> store st cell (coerce ty (eval st mode frame e))
      | None -> ());
      { cell; vty = ty }

and exec_stmt st mode frame stmt : flow =
  burn st;
  match stmt with
  | Sexpr e ->
      ignore (eval st mode frame e);
      Normal
  | Sassign (lv, rv) ->
      let v = eval st mode frame rv in
      let addr, ty = eval_lvalue st mode frame lv in
      check_deref mode addr;
      if mode.space = Mic && addr.space = Cpu then
        error "MIC code wrote to CPU memory"
      else store st addr (coerce ty v);
      Normal
  | Sdecl _ -> Normal (* binding handled by exec_block *)
  | Sif (c, b1, b2) ->
      if as_bool (eval st mode frame c) then exec_block st mode frame b1
      else exec_block st mode frame b2
  | Swhile (c, b) ->
      let rec loop () =
        burn st;
        if as_bool (eval st mode frame c) then
          match exec_block st mode frame b with
          | Normal | Continue -> loop ()
          | Break -> Normal
          | Return v -> Return v
        else Normal
      in
      loop ()
  | Sfor { index; lo; hi; step; body } ->
      let cell = alloc st mode.space 1 in
      (* [lo] is evaluated before the index is in scope *)
      let lo_v = eval st mode frame lo in
      bind frame index { cell; vty = Tint };
      store st cell lo_v;
      let rec loop () =
        burn st;
        let i = as_int (load st cell) in
        let hi_v = as_int (eval st mode frame hi) in
        if i < hi_v then begin
          match exec_block st mode frame body with
          | Normal | Continue ->
              let stepv = as_int (eval st mode frame step) in
              store st cell (Vint (i + stepv));
              loop ()
          | Break -> Normal
          | Return v -> Return v
        end
        else Normal
      in
      let fl = loop () in
      unbind frame index;
      fl
  | Sreturn None -> Return Vundef
  | Sreturn (Some e) -> Return (eval st mode frame e)
  | Sblock b -> exec_block st mode frame b
  | Sbreak -> Break
  | Scontinue -> Continue
  | Spragma (p, s) -> exec_pragma st mode frame p s

and exec_pragma st mode frame pragma stmt : flow =
  match pragma with
  | Omp_parallel_for | Omp_simd ->
      (* functional semantics of a parallel loop = sequential execution *)
      exec_stmt st mode frame stmt
  | Offload_wait e ->
      emit st (Ev_wait (as_int (eval st mode frame e))) [];
      Normal
  | Offload_transfer spec ->
      let h0 = st.stats.cells_h2d and d0 = st.stats.cells_d2h in
      let sections = do_transfers st mode frame spec in
      let h2d_cells = st.stats.cells_h2d - h0
      and d2h_cells = st.stats.cells_d2h - d0 in
      let signal =
        Option.map (fun e -> as_int (eval st mode frame e)) spec.signal
      in
      if h2d_cells > 0 || d2h_cells > 0 || Option.is_some signal then
        emit st (Ev_transfer { h2d_cells; d2h_cells; signal }) sections;
      Normal
  | Offload spec -> exec_offload st mode frame spec stmt

(** Resolve a section to (cpu-side base address, cell count, elem size). *)
and resolve_section st mode frame (s : section) =
  let b = clause_binding frame ~clause:"data" s.arr in
  let elt =
    match b.vty with
    | Tarray (t, _) | Tptr t -> t
    | _ -> error "data clause on non-array %s" s.arr
  in
  let esz = sizeof st elt in
  let base = as_ptr (load st b.cell) in
  let start = as_int (eval st mode frame s.start) in
  let len = as_int (eval st mode frame s.len) in
  if len < 0 then error "negative section length for %s" s.arr;
  ({ base with ofs = base.ofs + (start * esz) }, len * esz, esz)

and do_transfers st mode frame spec =
  let transfer_in (s : section) =
    let src, n, esz = resolve_section st mode frame s in
    let translated = List.mem s.arr spec.translate in
    match s.into with
    | Some (dst_name, dofs_e) ->
        let dst_b = clause_binding frame ~clause:"into()" dst_name in
        let dst = as_ptr (load st dst_b.cell) in
        let dofs = as_int (eval st mode frame dofs_e) in
        let dst = { dst with ofs = dst.ofs + (dofs * esz) } in
        copy_cells st ~src ~dst n;
        if translated then translate_cells st ~src ~dst n
    | None ->
        let b = clause_binding frame ~clause:"in()" s.arr in
        let cpu_base = as_ptr (load st b.cell) in
        let start_cells = src.ofs - cpu_base.ofs in
        let mic_base =
          shadow_for st ~cpu_base ~cells_needed:(start_cells + n)
        in
        let dst = { mic_base with ofs = mic_base.ofs + start_cells } in
        copy_cells st ~src ~dst n;
        if translated then translate_cells st ~src ~dst n
  in
  let transfer_out (s : section) =
    let translated = List.mem s.arr spec.translate in
    match s.into with
    | Some (dst_name, dofs_e) ->
        (* out(dev[a:l] : into(host[b:l])): device-to-host copy *)
        let src, n, esz = resolve_section st mode frame s in
        let dst_b = clause_binding frame ~clause:"into()" dst_name in
        let dst = as_ptr (load st dst_b.cell) in
        let dofs = as_int (eval st mode frame dofs_e) in
        let dst = { dst with ofs = dst.ofs + (dofs * esz) } in
        copy_cells st ~src ~dst n;
        if translated then translate_cells st ~src ~dst n
    | None ->
        let dst, n, _ = resolve_section st mode frame s in
        let b = clause_binding frame ~clause:"out()" s.arr in
        let cpu_base = as_ptr (load st b.cell) in
        let start_cells = dst.ofs - cpu_base.ofs in
        let mic_base =
          match Hashtbl.find_opt st.shadows cpu_base.ofs with
          | Some m -> m
          | None -> error "out() for %s before any in()" s.arr
        in
        copy_cells st
          ~src:{ mic_base with ofs = mic_base.ofs + start_cells }
          ~dst n
  in
  let name (s : section) = s.arr in
  let ins = move_sections st ~name transfer_in (spec.ins @ spec.inouts) in
  ins @ move_sections st ~name transfer_out spec.outs

and exec_offload st mode frame spec stmt : flow =
  if mode.space = Mic then error "nested offload";
  st.stats.offloads <- st.stats.offloads + 1;
  (* 1. copy in/inout sections host -> device *)
  let h0 = st.stats.cells_h2d in
  let sections = do_transfers st mode frame { spec with outs = [] } in
  let in_cells = st.stats.cells_h2d - h0 in
  if in_cells > 0 then
    emit st
      (Ev_transfer { h2d_cells = in_cells; d2h_cells = 0; signal = None })
      sections;
  (* 2. rebind clause arrays (without into) to their MIC shadows *)
  let rebind acc (s : section) =
    if Option.is_some s.into || List.mem_assoc s.arr acc then acc
    else
      let b = clause_binding frame ~clause:"offload data" s.arr in
      let cpu_base = as_ptr (load st b.cell) in
      match Hashtbl.find_opt st.shadows cpu_base.ofs with
      | None -> acc (* out-only array: shadow created below *)
      | Some mic_base ->
          let cell = alloc st Cpu 1 in
          store st cell (Vptr mic_base);
          (s.arr, { b with cell }) :: acc
  in
  (* out-only arrays need a device buffer even without an in() copy *)
  let ensure_shadow (s : section) =
    if Option.is_none s.into then begin
      let addr, n, _ = resolve_section st mode frame s in
      let b = clause_binding frame ~clause:"out()" s.arr in
      let cpu_base = as_ptr (load st b.cell) in
      let start_cells = addr.ofs - cpu_base.ofs in
      ignore (shadow_for st ~cpu_base ~cells_needed:(start_cells + n))
    end
  in
  List.iter ensure_shadow spec.outs;
  let rebinds =
    List.fold_left rebind [] (spec.ins @ spec.inouts @ spec.outs)
  in
  (* nocopy(): the named arrays must already hold a device shadow from
     an earlier offload or transfer; rebind them to it without any
     copy.  [Ev_resident] records how many device cells the kernel
     depends on that this offload did not transfer — the replay layer
     re-charges exactly those when a device reset wipes the shadows. *)
  let nocopy_rebinds, resident_cells =
    List.fold_left
      (fun ((acc, cells) as unchanged) name ->
        if List.mem_assoc name acc then unchanged
        else
          let b = clause_binding frame ~clause:"nocopy()" name in
          let cpu_base = as_ptr (load st b.cell) in
          match Hashtbl.find_opt st.shadows cpu_base.ofs with
          | None -> error "nocopy(%s): no resident device copy" name
          | Some mic_base ->
              let n =
                match b.vty with
                | Tarray (elt, Some (Int_lit k)) -> k * sizeof st elt
                | _ -> 0
              in
              let acc =
                (* a section clause on the same array already rebound it *)
                if List.mem_assoc name rebinds then acc
                else begin
                  let cell = alloc st Cpu 1 in
                  store st cell (Vptr mic_base);
                  (name, { b with cell }) :: acc
                end
              in
              (acc, cells + n))
      ([], 0) spec.nocopy
  in
  if spec.nocopy <> [] then emit st (Ev_resident { cells = resident_cells }) [];
  let rebinds = rebinds @ nocopy_rebinds in
  List.iter (fun (name, b) -> bind frame name b) rebinds;
  (* 3. run the body in MIC mode *)
  let fuel0 = st.fuel in
  let fl =
    match st.profile with
    | None -> exec_stmt st { space = Mic } frame stmt
    | Some p -> exec_kernel st { space = Mic } frame p stmt
  in
  (* the rebinds scope over the body only: the out/inout copies below
     resolve sections against the host bindings again *)
  List.iter (fun (name, _) -> unbind frame name) rebinds;
  let work = fuel0 - st.fuel in
  let wait =
    Option.map (fun e -> as_int (eval st mode frame e)) spec.wait
  in
  emit st (Ev_kernel { work; wait }) [];
  (* 4. copy out/inout sections device -> host (inouts must not be
     re-transferred inward here, or stale host data would overwrite the
     kernel's results) *)
  let d0 = st.stats.cells_d2h in
  let sections =
    do_transfers st mode frame
      { spec with ins = []; inouts = []; outs = spec.outs @ spec.inouts }
  in
  let out_cells = st.stats.cells_d2h - d0 in
  if out_cells > 0 then
    emit st
      (Ev_transfer { h2d_cells = 0; d2h_cells = out_cells; signal = None })
      sections;
  match fl with
  | Normal -> Normal
  | Return _ | Break | Continue -> error "control flow escaped offload"

(* An offload body in a profiled run: [omp] pragmas burn as
   [exec_stmt] burns them, and a [for] beneath them runs as
   [exec_stmt] runs it, recording its first index and each completed
   iteration's fuel for the kernel's detail. *)
and exec_kernel st mode frame p stmt : flow =
  match stmt with
  | Spragma ((Omp_parallel_for | Omp_simd), s) ->
      burn st;
      exec_kernel st mode frame p s
  | Sfor { index; lo; hi; step; body } ->
      burn st;
      let cell = alloc st mode.space 1 in
      let lo_v = eval st mode frame lo in
      bind frame index { cell; vty = Tint };
      store st cell lo_v;
      let iterations = ref [] in
      let rec loop () =
        let fuel0 = st.fuel in
        burn st;
        let i = as_int (load st cell) in
        let hi_v = as_int (eval st mode frame hi) in
        if i < hi_v then begin
          match exec_block st mode frame body with
          | Normal | Continue ->
              let stepv = as_int (eval st mode frame step) in
              store st cell (Vint (i + stepv));
              iterations := (fuel0 - st.fuel) :: !iterations;
              loop ()
          | Break -> Normal
          | Return v -> Return v
        end
        else Normal
      in
      let fl = loop () in
      unbind frame index;
      (* the first bound check already read [lo_v] as an int *)
      p.kernel_loop <-
        Some
          {
            lp_first = as_int lo_v;
            lp_iterations = Array.of_list (List.rev !iterations);
          };
      fl
  | s -> exec_stmt st mode frame s

(** {1 Whole-program execution} *)

type outcome = {
  ret : value;
  output : string;
  stats : stats;
  events : event list;  (** offload-level trace, in program order *)
  globals : (string * value list) list;
      (** final contents of every global variable, in declaration
          order: array/struct storage flattened cell by cell, scalars
          as a single cell.  This is the "final heap state" the
          differential oracle ({!Check.equiv}) compares. *)
  work : int;
      (** fuel consumed = statements + loop iterations + calls
          executed; the unit the interpreter-throughput benchmark
          counts, and a fuel-parity check between engines *)
}

(** Which evaluator executes a program.  [Reference] is the
    tree-walking interpreter in this module; [Compiled] is the
    closure-compiling evaluator ({!Compile_eval}), which must be
    observationally identical — same output, return value, globals,
    stats, events, and fuel accounting. *)
type engine = Reference | Compiled

let engine_name = function Reference -> "reference" | Compiled -> "compiled"

let engine_of_string = function
  | "reference" -> Some Reference
  | "compiled" -> Some Compiled
  | _ -> None

(* Build a name table where the FIRST definition of a name wins, the
   resolution the old declaration-order assoc lists gave duplicate
   structs/functions.  [Hashtbl.add] would make the last one win. *)
let first_wins pairs =
  let h = Hashtbl.create 16 in
  List.iter (fun (k, v) -> if not (Hashtbl.mem h k) then Hashtbl.add h k v) pairs;
  h

let init_state ?profile prog =
  {
    cpu = new_heap ();
    mic = new_heap ();
    structs =
      first_wins
        (List.filter_map
           (function Gstruct s -> Some (s.sname, s) | _ -> None)
           prog);
    funcs =
      first_wins
        (List.filter_map
           (function Gfunc f -> Some (f.fname, f) | _ -> None)
           prog);
    output = Buffer.create 256;
    fuel = 0;
    stats =
      {
        offloads = 0;
        transfers = 0;
        cells_h2d = 0;
        cells_d2h = 0;
        mic_alloc_cells = 0;
      };
    events = [];
    shadows = Hashtbl.create 16;
    profile;
  }

(* Flattened final contents of one global's storage, for the outcome
   snapshot.  Sizes in bindings are resolved ([bind_decl] stores the
   evaluated [Int_lit]), so [sizeof] is exact here. *)
let snapshot_binding st (b : binding) =
  match b.vty with
  | Tarray (elt, Some (Int_lit n)) -> (
      match load st b.cell with
      | Vptr base ->
          List.init (n * sizeof st elt) (fun k ->
              load st { base with ofs = base.ofs + k })
      | v -> [ v ])
  | Tstruct _ ->
      List.init (sizeof st b.vty) (fun k ->
          load st { b.cell with ofs = b.cell.ofs + k })
  | _ -> [ load st b.cell ]

let default_fuel = 10_000_000
let new_profile fuel = { budget = fuel; details = []; kernel_loop = None }
let details p = List.rev p.details

let run_with ?profile ~fuel prog =
  let st = init_state ?profile prog in
  st.fuel <- fuel;
  let mode = { space = Cpu } in
  try
    (* bind globals; initializers see no other bindings, as before *)
    let empty : frame = Hashtbl.create 1 in
    let globals =
      List.filter_map
        (function
          | Gvar (ty, name, init) ->
              Some (name, bind_decl st mode empty ty name init)
          | _ -> None)
        prog
    in
    let genv : frame = Hashtbl.create 32 in
    (* reverse so the first of two same-named globals shadows, as the
       old declaration-order assoc list resolved it *)
    List.iter (fun (name, b) -> bind genv name b) (List.rev globals);
    match Hashtbl.find_opt st.funcs "main" with
    | None -> Error "no main function"
    | Some f ->
        let fl = exec_block st mode genv f.body in
        let ret = match fl with Return v -> v | _ -> Vundef in
        Ok
          {
            ret;
            output = Buffer.contents st.output;
            stats = st.stats;
            events = List.rev st.events;
            globals =
              List.map (fun (n, b) -> (n, snapshot_binding st b)) globals;
            work = fuel - st.fuel;
          }
  with
  | Runtime_error msg -> Error msg
  | Out_of_fuel -> Error "out of fuel"

(** Run [main()].  [fuel] bounds the number of statements executed
    (default 10 million). *)
let run ?(fuel = default_fuel) prog = run_with ~fuel prog

(** {!run}, plus one detail per event of the outcome, in event order. *)
let run_profiled ?(fuel = default_fuel) prog =
  let p = new_profile fuel in
  Result.map (fun o -> (o, details p)) (run_with ~profile:p ~fuel prog)

(** Convenience: run and return printed output, raising on error. *)
let run_output ?fuel prog =
  match run ?fuel prog with
  | Ok o -> o.output
  | Error msg -> invalid_arg ("Minic.Interp: " ^ msg)
