(** Shared infrastructure for the optimizer passes: the per-run
    context (observability sink, global type environment, fresh-name
    counter), scope-aware typing, and the effect queries the legality
    checks are built on (re-exported from [Minic.Ast]).

    Every pass is gated by the same three questions — may this
    expression trap ([Ast.may_trap]), does it call ([Ast.has_call]),
    and what does this region write ([Ast.writes]) — so a pass never
    deletes, duplicates, or hoists an effect it cannot prove absent. *)

open Minic.Ast
module SS = Set.Make (String)

type ctx = {
  obs : Obs.t option;
  genv : Minic.Typecheck.env;
  globals : SS.t;  (** global variable names (callees may write these) *)
  fresh : int ref;
}

let make_ctx ?obs prog =
  let genv = Minic.Typecheck.initial_env prog in
  {
    obs;
    genv;
    globals = SS.of_list (List.map fst genv.Minic.Typecheck.vars);
    fresh = ref 0;
  }

(** Per-pass counters rendered by [--report]: [opt.<pass>.fired] and
    [opt.<pass>.blocked.<reason>]. *)
let fired ?(by = 1) ctx pass =
  Option.iter (fun o -> Obs.incr ~by o ("opt." ^ pass ^ ".fired")) ctx.obs

let blocked ctx pass reason =
  Option.iter
    (fun o -> Obs.incr o (Printf.sprintf "opt.%s.blocked.%s" pass reason))
    ctx.obs

let fresh ctx prefix =
  incr ctx.fresh;
  Printf.sprintf "%s__%d" prefix !(ctx.fresh)

(** Type of [e] under the function-local scope [vars] (innermost
    first, on top of the globals); [None] when it does not type. *)
let type_of ctx vars e =
  let env = { ctx.genv with Minic.Typecheck.vars = vars @ ctx.genv.vars } in
  match Minic.Typecheck.type_of_expr env e with
  | t -> Some t
  | exception Minic.Typecheck.Type_error _ -> None

(** Types an optimizer temporary may hold.  [Interp.bind_decl] treats
    array declarations as allocations (the initializer is never
    evaluated) and struct declarations as storage (initializer
    ignored), so a temp that is supposed to {e capture a value} must be
    scalar or pointer. *)
let cacheable_ty = function Tint | Tfloat | Tbool | Tptr _ -> true | _ -> false

(** Static types up to array decay: [Tarray (t, _)] and [Tptr t] are
    interchangeable everywhere the interpreter consults static types
    (element sizes for address arithmetic). *)
let rec norm_ty = function
  | Tarray (t, _) -> Tptr (norm_ty t)
  | Tptr t -> Tptr (norm_ty t)
  | t -> t

(** Node count, used as the "worth naming" threshold. *)
let size e = fold_expr (fun n _ -> n + 1) 0 e

let has_load e =
  fold_expr
    (fun acc e ->
      match e with Index _ | Deref _ | Arrow _ -> true | _ -> acc)
    false e

(** Variables whose address is taken anywhere in a block: writes
    through pointers may target them, so no pass may assume their
    value is stable. *)
let addr_taken block =
  let of_expr acc e =
    fold_expr
      (fun acc e -> match e with Addr (Var v) -> SS.add v acc | _ -> acc)
      acc e
  in
  fold_stmts
    (fun acc s ->
      let exprs =
        match s with Spragma (p, _) -> pragma_exprs p | _ -> stmt_exprs s
      in
      List.fold_left of_expr acc exprs)
    SS.empty block

(** Does [block] read variable [v] anywhere — in an expression
    (including array-size expressions of declarations, which
    [stmt_exprs] omits), or by name in an offload data clause? *)
let block_reads_var v block =
  let spec_reads (s : offload_spec) =
    List.exists
      (fun sec ->
        String.equal sec.arr v
        || match sec.into with Some (d, _) -> String.equal d v | None -> false)
      (s.ins @ s.outs @ s.inouts)
    || List.mem v s.nocopy || List.mem v s.translate
  in
  fold_stmts
    (fun acc s ->
      acc
      ||
      let exprs =
        match s with
        | Spragma (p, _) -> pragma_exprs p
        | Sdecl (Tarray (_, Some n), _, init) -> n :: Option.to_list init
        | _ -> stmt_exprs s
      in
      List.exists (fun e -> List.mem v (expr_vars e)) exprs
      ||
      match s with
      | Spragma ((Offload sp | Offload_transfer sp), _) -> spec_reads sp
      | _ -> false)
    false block

(** Replace every occurrence of expression [target] in [e] by [by],
    outermost first (an occurrence inside another occurrence is
    covered by the outer replacement). *)
let rec replace_expr ~target ~by e =
  if equal_expr e target then by
  else
    let r e = replace_expr ~target ~by e in
    match e with
    | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> e
    | Index (a, i) -> Index (r a, r i)
    | Field (a, f) -> Field (r a, f)
    | Arrow (a, f) -> Arrow (r a, f)
    | Deref a -> Deref (r a)
    | Addr a -> Addr (r a)
    | Binop (op, a, b) -> Binop (op, r a, r b)
    | Unop (op, a) -> Unop (op, r a)
    | Call (f, args) -> Call (f, List.map r args)
    | Cast (t, a) -> Cast (t, r a)

(** Rewrite the expressions a statement itself evaluates (not nested
    statements): condition, bounds, operands, initializers — and the
    size expression of a local array declaration.  Pragma clause
    expressions are left alone. *)
let map_stmt_exprs f stmt =
  match stmt with
  | Sexpr e -> Sexpr (f e)
  | Sassign (lv, rv) -> Sassign (f lv, f rv)
  | Sdecl (ty, v, init) ->
      let ty =
        match ty with
        | Tarray (t, Some n) -> Tarray (t, Some (f n))
        | t -> t
      in
      Sdecl (ty, v, Option.map f init)
  | Sif (c, b1, b2) -> Sif (f c, b1, b2)
  | Swhile (c, b) -> Swhile (f c, b)
  | Sfor fl -> Sfor { fl with lo = f fl.lo; hi = f fl.hi; step = f fl.step }
  | Sreturn e -> Sreturn (Option.map f e)
  | (Sblock _ | Spragma _ | Sbreak | Scontinue) as s -> s

(** [f] over every expression of every statement of [block], at any
    depth. *)
let map_block_exprs f block = map_block (map_stmt_exprs f) block

(** Map [f] over every function body of the program. *)
let map_bodies f prog =
  map_funcs (fun fn -> { fn with body = f fn fn.body }) prog
