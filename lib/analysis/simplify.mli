(** Smart constructors with constant folding.

    Used by the analyses (to normalize affine offsets) and by the
    transformations (so generated source stays readable). *)

val add : Minic.Ast.expr -> Minic.Ast.expr -> Minic.Ast.expr
val sub : Minic.Ast.expr -> Minic.Ast.expr -> Minic.Ast.expr
val mul : Minic.Ast.expr -> Minic.Ast.expr -> Minic.Ast.expr
val div : Minic.Ast.expr -> Minic.Ast.expr -> Minic.Ast.expr

val const_int : Minic.Ast.expr -> int option
(** Fold a closed integer expression to its value. *)

val expr : Minic.Ast.expr -> Minic.Ast.expr
(** Recursively simplify the integer arithmetic of an expression,
    including the [imin]/[imax] builtins the transformations
    generate. *)

val mentions : string -> Minic.Ast.expr -> bool
(** Does the expression read the named variable? *)
