(** Abstract syntax for MiniC, the C subset the COMP optimizations operate
    on.  The language covers what the paper's benchmarks need: scalar
    [int]/[float]/[bool] types, pointers, fixed- and variable-length
    arrays, structs, canonical counted [for] loops, OpenMP
    [parallel for] pragmas and LEO-style [offload] pragmas with
    [in]/[out]/[inout] data clauses. *)

type ty =
  | Tvoid
  | Tint
  | Tfloat
  | Tbool
  | Tptr of ty
  | Tarray of ty * expr option  (** element type, optional static size *)
  | Tstruct of string

and binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

and unop = Neg | Not

and expr =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Index of expr * expr  (** [a[i]] *)
  | Field of expr * string  (** [s.f] *)
  | Arrow of expr * string  (** [p->f] *)
  | Deref of expr  (** [*p] *)
  | Addr of expr  (** [&lv] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Cast of ty * expr
[@@deriving show { with_path = false }, eq]

(** A data clause section: [arr[start:len]], optionally redirected into a
    device-side array with [into(dst[dstart:len])] as in LEO. *)
type section = {
  arr : string;
  start : expr;
  len : expr;
  into : (string * expr) option;  (** destination array and offset *)
}
[@@deriving show { with_path = false }, eq]

type offload_spec = {
  target : int;  (** device number, [mic:N] *)
  ins : section list;
  outs : section list;
  inouts : section list;
  nocopy : string list;
  translate : string list;
      (** arrays whose pointer-valued cells are rebased to the device
          copy during the transfer (the delta-table translation of
          Section V-B, as a language feature) *)
  signal : expr option;
  wait : expr option;
}
[@@deriving show { with_path = false }, eq]

let empty_spec =
  {
    target = 0;
    ins = [];
    outs = [];
    inouts = [];
    nocopy = [];
    translate = [];
    signal = None;
    wait = None;
  }

type pragma =
  | Omp_parallel_for
  | Omp_simd
  | Offload of offload_spec  (** [#pragma offload target(mic:N) ...] *)
  | Offload_transfer of offload_spec
      (** asynchronous data transfer without computation *)
  | Offload_wait of expr  (** wait for a signalled transfer/kernel *)
[@@deriving show { with_path = false }, eq]

type stmt =
  | Sexpr of expr
  | Sassign of expr * expr  (** lvalue = rvalue *)
  | Sdecl of ty * string * expr option
  | Sif of expr * block * block
  | Swhile of expr * block
  | Sfor of for_loop
  | Sreturn of expr option
  | Sblock of block
  | Spragma of pragma * stmt
  | Sbreak
  | Scontinue

and block = stmt list

and for_loop = {
  index : string;
  lo : expr;
  hi : expr;  (** exclusive upper bound: [index < hi] *)
  step : expr;
  body : block;
}
[@@deriving show { with_path = false }, eq]

type param = { pty : ty; pname : string } [@@deriving show { with_path = false }, eq]

type func = { ret : ty; fname : string; params : param list; body : block }
[@@deriving show { with_path = false }, eq]

type struct_def = { sname : string; sfields : (ty * string) list }
[@@deriving show { with_path = false }, eq]

type global =
  | Gstruct of struct_def
  | Gfunc of func
  | Gvar of ty * string * expr option
[@@deriving show { with_path = false }, eq]

type program = global list [@@deriving show { with_path = false }, eq]

(** {1 Constructors and small helpers} *)

let int_ n = Int_lit n
let var v = Var v
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let idx a i = Index (a, i)

let section ?into ~arr ~start ~len () = { arr; start; len; into }

(** [section_full name n] is the whole-array clause [name[0:n]]. *)
let section_full name n = section ~arr:name ~start:(int_ 0) ~len:n ()

let find_func prog name =
  List.find_map
    (function Gfunc f when String.equal f.fname name -> Some f | _ -> None)
    prog

let find_struct prog name =
  List.find_map
    (function
      | Gstruct s when String.equal s.sname name -> Some s | _ -> None)
    prog

(** Map a function over every function body of a program. *)
let map_funcs f prog =
  List.map (function Gfunc fn -> Gfunc (f fn) | g -> g) prog

(** Fold over every statement of a block, depth first. *)
let rec fold_stmts f acc block = List.fold_left (fold_stmt f) acc block

and fold_stmt f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue -> acc
  | Sif (_, b1, b2) -> fold_stmts f (fold_stmts f acc b1) b2
  | Swhile (_, b) -> fold_stmts f acc b
  | Sfor { body; _ } -> fold_stmts f acc body
  | Sblock b -> fold_stmts f acc b
  | Spragma (_, s) -> fold_stmt f acc s

(** Rewrite every statement of a block bottom-up. *)
let rec map_block f block = List.map (map_stmt f) block

and map_stmt f stmt =
  let stmt' =
    match stmt with
    | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue -> stmt
    | Sif (c, b1, b2) -> Sif (c, map_block f b1, map_block f b2)
    | Swhile (c, b) -> Swhile (c, map_block f b)
    | Sfor fl -> Sfor { fl with body = map_block f fl.body }
    | Sblock b -> Sblock (map_block f b)
    | Spragma (p, s) -> Spragma (p, map_stmt f s)
  in
  f stmt'

(** Fold over every expression appearing in a statement (shallow:
    does not recurse into nested statements). *)
let rec fold_expr f acc expr =
  let acc = f acc expr in
  match expr with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> acc
  | Index (a, i) -> fold_expr f (fold_expr f acc a) i
  | Field (e, _) | Arrow (e, _) | Deref e | Addr e | Unop (_, e) | Cast (_, e)
    ->
      fold_expr f acc e
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

(** Expressions appearing directly in a statement (not nested stmts). *)
let stmt_exprs stmt =
  match stmt with
  | Sexpr e | Sreturn (Some e) | Sdecl (_, _, Some e) -> [ e ]
  | Sassign (lv, rv) -> [ lv; rv ]
  | Sif (c, _, _) | Swhile (c, _) -> [ c ]
  | Sfor { lo; hi; step; _ } -> [ lo; hi; step ]
  | Sreturn None | Sdecl (_, _, None) | Sblock _ | Sbreak | Scontinue -> []
  | Spragma (_, _) -> []

(** All expressions in a block, including nested statements. *)
let block_exprs block =
  fold_stmts (fun acc s -> List.rev_append (stmt_exprs s) acc) [] block
  |> List.rev

(** Substitute variable [name] with expression [by] in an expression. *)
let rec subst_expr ~name ~by expr =
  let s e = subst_expr ~name ~by e in
  match expr with
  | Var v when String.equal v name -> by
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> expr
  | Index (a, i) -> Index (s a, s i)
  | Field (e, f) -> Field (s e, f)
  | Arrow (e, f) -> Arrow (s e, f)
  | Deref e -> Deref (s e)
  | Addr e -> Addr (s e)
  | Binop (op, a, b) -> Binop (op, s a, s b)
  | Unop (op, e) -> Unop (op, s e)
  | Call (f, args) -> Call (f, List.map s args)
  | Cast (t, e) -> Cast (t, s e)

(** Substitute a variable in every expression of a block.  Does not
    attempt capture-avoidance: MiniC programs produced by the
    transformations use fresh names. *)
let rec subst_block ~name ~by block = List.map (subst_stmt ~name ~by) block

and subst_stmt ~name ~by stmt =
  let se e = subst_expr ~name ~by e in
  let sb b = subst_block ~name ~by b in
  match stmt with
  | Sexpr e -> Sexpr (se e)
  | Sassign (lv, rv) -> Sassign (se lv, se rv)
  | Sdecl (t, v, init) -> Sdecl (t, v, Option.map se init)
  | Sif (c, b1, b2) -> Sif (se c, sb b1, sb b2)
  | Swhile (c, b) -> Swhile (se c, sb b)
  | Sfor fl ->
      if String.equal fl.index name then
        (* the loop rebinds [name]; lo/hi/step are evaluated outside *)
        Sfor { fl with lo = se fl.lo; hi = se fl.hi; step = se fl.step }
      else
        Sfor
          {
            fl with
            lo = se fl.lo;
            hi = se fl.hi;
            step = se fl.step;
            body = sb fl.body;
          }
  | Sreturn e -> Sreturn (Option.map se e)
  | Sblock b -> Sblock (sb b)
  | Spragma (p, s) -> Spragma (p, subst_stmt ~name ~by s)
  | Sbreak | Scontinue -> stmt

(** Variables read anywhere in an expression. *)
let expr_vars expr =
  fold_expr
    (fun acc e -> match e with Var v -> v :: acc | _ -> acc)
    [] expr
  |> List.rev

(** {1 Effect and purity analysis}

    Conservative, type-free approximations used by the optimizer
    ([lib/opt]) and the [Simplify] smart constructors to decide when
    an expression may be deleted, duplicated, or hoisted.  Everything
    errs on the side of "has an effect". *)

(** [has_call e]: [e] contains a call, builtin or user-defined.  Calls
    may print, allocate, write globals, trap, or burn fuel, so an
    expression containing one must never be folded away. *)
let has_call e =
  fold_expr (fun acc e -> match e with Call _ -> true | _ -> acc) false e

(** [may_trap e]: evaluating [e] may raise a runtime error.  Int
    [Div]/[Mod] trap on a zero divisor (a [Float_lit] divisor is float
    division, which yields inf/nan instead); [Index]/[Deref]/[Arrow]
    loads trap out of bounds or across the host/device address spaces;
    calls may trap inside the callee.  [&a[i]] is treated like the
    load it addresses. *)
let rec may_trap e =
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> false
  | Index _ | Deref _ | Arrow _ -> true
  | Field (e, _) | Addr e | Unop (_, e) | Cast (_, e) -> may_trap e
  | Binop ((Div | Mod), a, b) -> (
      may_trap a
      ||
      match b with
      | Int_lit n -> n = 0
      | Float_lit _ -> false
      | _ -> true)
  | Binop (_, a, b) -> may_trap a || may_trap b
  | Call _ -> true

(** [pure e]: evaluating [e] has no observable effect and cannot fail,
    so deleting or re-evaluating it is always safe. *)
let pure e = (not (has_call e)) && not (may_trap e)

(** Expressions evaluated by a pragma itself (section bounds, signal
    and wait tags) — [stmt_exprs] deliberately excludes these. *)
let pragma_exprs = function
  | Omp_parallel_for | Omp_simd -> []
  | Offload_wait e -> [ e ]
  | Offload s | Offload_transfer s ->
      let sec_exprs sec =
        (sec.start :: sec.len :: [])
        @ match sec.into with Some (_, o) -> [ o ] | None -> []
      in
      List.concat_map sec_exprs (s.ins @ s.outs @ s.inouts)
      @ Option.to_list s.signal @ Option.to_list s.wait

(** Base variable of an lvalue path, when it can be named: [a[i].f]
    writes into [a]; [*p] and [p->f] write through a pointer whose
    target cannot be named syntactically. *)
let rec lvalue_base = function
  | Var v -> Some v
  | Index (e, _) | Field (e, _) | Cast (_, e) -> lvalue_base e
  | _ -> None

(** What a block may write, conservatively. *)
type write_set = {
  w_vars : string list;
      (** scalars assigned or declared directly ([v = e], [int v],
          loop indexes), sorted *)
  w_mem : string list;
      (** named arrays/structs written through [a[i]]/[s.f] lvalues or
          offload out/inout/into clauses, sorted *)
  w_unknown : bool;
      (** writes that cannot be attributed to a name: [*p = e],
          [p->f = e], or any call (a callee may write globals) *)
}

let writes block =
  let vars = ref [] and mem = ref [] and unknown = ref false in
  let add r v = if not (List.mem v !r) then r := v :: !r in
  let written lv =
    match lv with
    | Var v -> add vars v
    | _ -> (
        match lvalue_base lv with
        | Some v -> add mem v
        | None -> unknown := true)
  in
  let spec_writes (s : offload_spec) =
    List.iter (fun sec -> add mem sec.arr) (s.outs @ s.inouts);
    List.iter
      (fun sec ->
        match sec.into with Some (dst, _) -> add mem dst | None -> ())
      (s.ins @ s.outs @ s.inouts)
  in
  fold_stmts
    (fun () s ->
      let exprs =
        match s with
        | Spragma (p, _) -> pragma_exprs p
        | _ -> stmt_exprs s
      in
      List.iter (fun e -> if has_call e then unknown := true) exprs;
      match s with
      | Sassign (lv, _) -> written lv
      | Sdecl (_, v, _) -> add vars v
      | Sfor { index; _ } -> add vars index
      | Spragma ((Offload spec | Offload_transfer spec), _) ->
          spec_writes spec
      | _ -> ())
    () block;
  {
    w_vars = List.sort compare !vars;
    w_mem = List.sort compare !mem;
    w_unknown = !unknown;
  }
