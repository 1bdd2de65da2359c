(** Recognition of affine index expressions [a * i + b], where [i] is a
    given loop index and [b] is loop-invariant.  The paper's data
    streaming legality check (Section III-A) admits a loop only when
    every array index has this shape, because only then can the
    compiler compute which data slice each computation block needs. *)

open Minic.Ast

type t = { coeff : int; offset : expr }
(** index = [coeff * i + offset]; [offset] does not mention [i]. *)

let constant e = { coeff = 0; offset = e }
let index_var = { coeff = 1; offset = Int_lit 0 }

let pp fmt { coeff; offset } =
  Format.fprintf fmt "%d*i + %s" coeff (Minic.Pretty.expr_to_string offset)

(** [of_expr ~index e] recognizes [e] as affine in [index].  Returns
    [None] when [e] involves [index] non-affinely (e.g. [B[i]], [i*i])
    or when a sub-expression is opaque. *)
let rec of_expr ~index e =
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ -> Some (constant e)
  | Var v when String.equal v index -> Some index_var
  | Var _ -> Some (constant e)
  | Binop (Add, a, b) -> (
      match (of_expr ~index a, of_expr ~index b) with
      | Some x, Some y ->
          Some
            { coeff = x.coeff + y.coeff; offset = Simplify.add x.offset y.offset }
      | _ -> None)
  | Binop (Sub, a, b) -> (
      match (of_expr ~index a, of_expr ~index b) with
      | Some x, Some y ->
          Some
            { coeff = x.coeff - y.coeff; offset = Simplify.sub x.offset y.offset }
      | _ -> None)
  | Binop (Mul, a, b) -> (
      match (of_expr ~index a, of_expr ~index b) with
      | Some x, Some y -> (
          (* one side must be a constant for the result to stay affine *)
          match (Simplify.const_int x.offset, Simplify.const_int y.offset) with
          | Some k, _ when x.coeff = 0 ->
              Some { coeff = k * y.coeff; offset = Simplify.mul (Int_lit k) y.offset }
          | _, Some k when y.coeff = 0 ->
              Some { coeff = k * x.coeff; offset = Simplify.mul x.offset (Int_lit k) }
          | _ ->
              if x.coeff = 0 && y.coeff = 0 then
                Some (constant (Simplify.mul x.offset y.offset))
              else None)
      | _ -> None)
  | Binop ((Div | Mod), a, b) ->
      (* affine only when the index is not involved at all *)
      if Simplify.mentions index a || Simplify.mentions index b then None
      else Some (constant (Simplify.expr e))
  | Unop (Neg, a) ->
      Option.map
        (fun x ->
          { coeff = -x.coeff; offset = Simplify.sub (Int_lit 0) x.offset })
        (of_expr ~index a)
  | Index _ | Field _ | Arrow _ | Deref _ | Addr _ | Call _ | Cast _
  | Binop _ | Unop _ ->
      if Simplify.mentions index e then None else Some (constant e)

(** Rebuild the expression [coeff * i + offset]. *)
let to_expr ~index { coeff; offset } =
  Simplify.add (Simplify.mul (Int_lit coeff) (Var index)) offset
