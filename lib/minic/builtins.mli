(** Builtin functions shared by the type checker and the interpreter.

    [malloc]/[mic_malloc] count in {e cells} (one cell per scalar slot
    of the interpreter heap), not bytes; byte-level sizes only matter
    to the machine cost model, which works from array lengths and
    element sizes instead. *)

type signature = { args : Ast.ty list; ret : Ast.ty }

val find : string -> signature option

val eval_float1 : string -> (float -> float) option
(** Unary float builtins, for the interpreter. *)

val eval_float2 : string -> (float -> float -> float) option
(** Binary float builtins, for the interpreter. *)
