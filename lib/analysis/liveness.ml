(** Variable use/def analysis, the Apricot-style machinery behind
    automatic [in]/[out]/[inout] clause inference for offloaded regions.
    Locally declared variables are excluded from the sets: only data
    crossing the region boundary needs transferring. *)

open Minic.Ast
module SS = Set.Make (String)

type info = {
  uses : SS.t;  (** variables read from the enclosing scope *)
  defs : SS.t;  (** variables written in the enclosing scope *)
  decls : SS.t;  (** variables declared inside the region *)
}

let empty = { uses = SS.empty; defs = SS.empty; decls = SS.empty }

let expr_uses e = SS.of_list (expr_vars e)

(* base variable of an lvalue: writing a[i] or *p or p->f defines (part
   of) the object named by the base variable *)
let rec lvalue_base = function
  | Var v -> Some v
  | Index (a, _) -> lvalue_base a
  | Field (a, _) -> lvalue_base a
  | Arrow (a, _) -> lvalue_base a
  | Deref a -> lvalue_base a
  | _ -> None

(* Index/pointer sub-expressions of an lvalue are themselves reads.
   The written object's own name is NOT a read: [b[i] = e] only defines
   b (reading the base pointer to compute the address does not make the
   array's contents an input, and counting it would turn every output
   clause into inout). *)
let rec lvalue_reads = function
  | Var _ -> SS.empty
  | Index (a, i) -> SS.union (lvalue_reads a) (expr_uses i)
  | Field (a, _) -> lvalue_reads a
  | Arrow (a, _) | Deref a -> expr_uses a
  | e -> expr_uses e

let rec of_stmt acc stmt =
  match stmt with
  | Sexpr e -> { acc with uses = SS.union acc.uses (expr_uses e) }
  | Sassign (lv, rv) ->
      let defs =
        match lvalue_base lv with
        | Some v -> SS.add v acc.defs
        | None -> acc.defs
      in
      {
        acc with
        uses = SS.union acc.uses (SS.union (lvalue_reads lv) (expr_uses rv));
        defs;
      }
  | Sdecl (t, name, init) ->
      let uses =
        match init with
        | Some e -> SS.union acc.uses (expr_uses e)
        | None -> acc.uses
      in
      let uses =
        match t with
        | Tarray (_, Some n) -> SS.union uses (expr_uses n)
        | _ -> uses
      in
      { acc with uses; decls = SS.add name acc.decls }
  | Sif (c, b1, b2) ->
      let acc = { acc with uses = SS.union acc.uses (expr_uses c) } in
      of_block (of_block acc b1) b2
  | Swhile (c, b) ->
      of_block { acc with uses = SS.union acc.uses (expr_uses c) } b
  | Sfor { index; lo; hi; step; body } ->
      let uses =
        SS.union acc.uses
          (SS.union (expr_uses lo) (SS.union (expr_uses hi) (expr_uses step)))
      in
      let inner = of_block { acc with uses } body in
      { inner with decls = SS.add index inner.decls }
  | Sreturn (Some e) -> { acc with uses = SS.union acc.uses (expr_uses e) }
  | Sreturn None | Sbreak | Scontinue -> acc
  | Sblock b -> of_block acc b
  | Spragma (p, s) ->
      let acc =
        match p with
        | Offload spec | Offload_transfer spec ->
            let section_uses s =
              SS.add s.arr (SS.union (expr_uses s.start) (expr_uses s.len))
            in
            let uses =
              List.fold_left
                (fun u s -> SS.union u (section_uses s))
                acc.uses
                (spec.ins @ spec.outs @ spec.inouts)
            in
            { acc with uses }
        | _ -> acc
      in
      of_stmt acc s

and of_block acc block = List.fold_left of_stmt acc block

(** Use/def information for a region, with locally declared names
    removed. *)
let of_region block =
  let raw = of_block empty block in
  {
    uses = SS.diff raw.uses raw.decls;
    defs = SS.diff raw.defs raw.decls;
    decls = raw.decls;
  }

(** Partition the boundary-crossing variables of a region into the
    LEO clause roles, given a predicate identifying array-typed
    variables (scalars are copied automatically by the offload
    runtime and need no clause). *)
let clause_roles ~is_array block =
  let info = of_region block in
  let arrays_used = SS.filter is_array info.uses in
  let arrays_defd = SS.filter is_array info.defs in
  let inout = SS.inter arrays_used arrays_defd in
  let ins = SS.diff arrays_used inout in
  let outs = SS.diff arrays_defd inout in
  (SS.elements ins, SS.elements outs, SS.elements inout)
