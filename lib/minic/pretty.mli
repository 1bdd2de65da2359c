(** Pretty-printer emitting valid MiniC source.

    The round-trip law [parse (print p) = p] holds for every program
    (property-tested); this is what makes the COMP transformations
    genuinely source-to-source. *)

val binop_str : Ast.binop -> string
val ty_str : Ast.ty -> string

val float_str : float -> string
(** Renders a float so it re-lexes as a float literal (always keeps a
    ['.'], ['e'] or [nan/inf] marker). *)

val expr_to_string : Ast.expr -> string

val program_to_string : Ast.program -> string
(** Render a whole program back to MiniC source text. *)
