(** Recognition of affine index expressions [a * i + b], where [i] is a
    given loop index and [b] is loop-invariant.

    The paper's data-streaming legality check (Section III-A) admits a
    loop only when every array index has this shape, because only then
    can the compiler compute which data slice each computation block
    needs. *)

type t = { coeff : int; offset : Minic.Ast.expr }
(** index = [coeff * i + offset]; [offset] does not mention [i]. *)

val pp : Format.formatter -> t -> unit

val of_expr : index:string -> Minic.Ast.expr -> t option
(** Recognize an expression as affine in [index]; [None] when the
    index occurs non-affinely ([B[i]], [i*i], [n*i] with variable [n],
    ...). *)

val to_expr : index:string -> t -> Minic.Ast.expr
(** Rebuild [coeff * i + offset] (simplified). *)
