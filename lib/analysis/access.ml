(** Classification of array accesses inside a (candidate) parallel loop.

    This is the analysis behind both the data-streaming legality check
    (all accesses affine, Section III-A) and the regularization
    optimization's pattern detection (Section IV): gathers [A[B[i]]],
    non-unit strides [A[k*i]], guarded accesses, and the position of
    irregular accesses within the loop body (for loop splitting). *)

open Minic.Ast

type kind =
  | Affine of Affine.t  (** [A[a*i + b]] *)
  | Gather of { via : string; via_index : Affine.t }
      (** [A[B[e]]] with [B[e]] itself affine — the reordering pattern *)
  | Opaque  (** anything else involving the loop index *)

type direction = Read | Write

type t = {
  arr : string;
  index : expr;
  kind : kind;
  dir : direction;
  guarded : bool;  (** under a conditional inside the loop body *)
}

exception Unknown_array of string

let is_affine a = match a.kind with Affine _ -> true | _ -> false

let classify_index ~index e =
  match Affine.of_expr ~index e with
  | Some aff -> Affine aff
  | None -> (
      match e with
      | Index (Var via, inner) -> (
          match Affine.of_expr ~index inner with
          | Some via_index -> Gather { via; via_index }
          | None -> Opaque)
      | _ -> Opaque)

(* Collect [arr[index]] accesses in an expression.  [dir] applies to the
   outermost access of an lvalue; nested index expressions are reads. *)
let rec of_expr ~index ~guarded ~dir acc e =
  match e with
  | Index (Var arr, ie) ->
      let access =
        { arr; index = ie; kind = classify_index ~index ie; dir; guarded }
      in
      of_expr ~index ~guarded ~dir:Read (access :: acc) ie
  | Index (a, ie) ->
      let acc = of_expr ~index ~guarded ~dir acc a in
      of_expr ~index ~guarded ~dir:Read acc ie
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> acc
  | Field (a, _) | Arrow (a, _) | Deref a | Addr a | Unop (_, a) | Cast (_, a)
    ->
      of_expr ~index ~guarded ~dir acc a
  | Binop (_, a, b) ->
      let acc = of_expr ~index ~guarded ~dir:Read acc a in
      of_expr ~index ~guarded ~dir:Read acc b
  | Call (_, args) ->
      List.fold_left (of_expr ~index ~guarded ~dir:Read) acc args

let rec of_stmt ~index ~guarded acc stmt =
  match stmt with
  | Sexpr e -> of_expr ~index ~guarded ~dir:Read acc e
  | Sassign (lv, rv) ->
      let acc = of_expr ~index ~guarded ~dir:Write acc lv in
      of_expr ~index ~guarded ~dir:Read acc rv
  | Sdecl (_, _, Some e) -> of_expr ~index ~guarded ~dir:Read acc e
  | Sdecl (_, _, None) | Sbreak | Scontinue | Sreturn None -> acc
  | Sreturn (Some e) -> of_expr ~index ~guarded ~dir:Read acc e
  | Sif (c, b1, b2) ->
      let acc = of_expr ~index ~guarded ~dir:Read acc c in
      let acc = of_block ~index ~guarded:true acc b1 in
      of_block ~index ~guarded:true acc b2
  | Swhile (c, b) ->
      let acc = of_expr ~index ~guarded ~dir:Read acc c in
      of_block ~index ~guarded acc b
  | Sfor { lo; hi; step; body; _ } ->
      let acc = of_expr ~index ~guarded ~dir:Read acc lo in
      let acc = of_expr ~index ~guarded ~dir:Read acc hi in
      let acc = of_expr ~index ~guarded ~dir:Read acc step in
      of_block ~index ~guarded acc body
  | Sblock b -> of_block ~index ~guarded acc b
  | Spragma (_, s) -> of_stmt ~index ~guarded acc s

and of_block ~index ~guarded acc block =
  List.fold_left (of_stmt ~index ~guarded) acc block

(** All array accesses of a loop, in source order.

    Affine offsets must be invariant for the whole loop: an offset that
    reads a variable declared inside the body (e.g. an inner loop index
    in [a[i*8 + j]], or a data-dependent cursor) cannot be evaluated
    when slicing transfers, so such accesses are demoted to
    {!Opaque}. *)
let of_loop (fl : for_loop) =
  let raw = of_block ~index:fl.index ~guarded:false [] fl.body |> List.rev in
  let decls = (Liveness.of_block Liveness.empty fl.body).Liveness.decls in
  let mentions_local e =
    List.exists (fun v -> Liveness.SS.mem v decls) (expr_vars e)
  in
  let demote a =
    match a.kind with
    | Affine aff when mentions_local aff.Affine.offset ->
        { a with kind = Opaque }
    | Gather { via_index; _ } when mentions_local via_index.Affine.offset ->
        { a with kind = Opaque }
    | Affine _ | Gather _ | Opaque -> a
  in
  List.map demote raw

(** Arrays accessed by the loop, deduplicated, in first-access order. *)
let arrays accesses =
  List.fold_left
    (fun seen a -> if List.mem a.arr seen then seen else a.arr :: seen)
    [] accesses
  |> List.rev

(** The streaming legality check: every access affine in the loop
    index.  (Loop-invariant indices count as affine with coefficient 0;
    the streaming transform transfers those arrays whole, up-front.) *)
let all_affine accesses = List.for_all is_affine accesses

(** Per-array summary used to build data clauses and block slices. *)
type summary = {
  name : string;
  reads : bool;
  writes : bool;
  guarded_any : bool;
  kinds : kind list;
  max_coeff : int option;
      (** max |coefficient| over affine accesses; None when any access
          is non-affine *)
  offsets : expr list;  (** affine offsets, for extent computation *)
}

let summarize accesses =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let s =
        match Hashtbl.find_opt tbl a.arr with
        | Some s -> s
        | None ->
            {
              name = a.arr;
              reads = false;
              writes = false;
              guarded_any = false;
              kinds = [];
              max_coeff = Some 0;
              offsets = [];
            }
      in
      let s =
        {
          s with
          reads = s.reads || a.dir = Read;
          writes = s.writes || a.dir = Write;
          guarded_any = s.guarded_any || a.guarded;
          kinds = a.kind :: s.kinds;
          max_coeff =
            (match (a.kind, s.max_coeff) with
            | Affine aff, Some m -> Some (max m (abs aff.coeff))
            | _ -> None);
          offsets =
            (match a.kind with
            | Affine aff -> aff.offset :: s.offsets
            | _ -> s.offsets);
        }
      in
      Hashtbl.replace tbl a.arr s)
    accesses;
  (* preserve first-access order; a miss would otherwise escape as a
     bare [Not_found] with no hint of which array was involved *)
  List.map
    (fun arr ->
      match Hashtbl.find_opt tbl arr with
      | Some s -> s
      | None -> raise (Unknown_array arr))
    (arrays accesses)
