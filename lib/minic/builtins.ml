(** Builtin functions shared by the type checker and the interpreter.

    [malloc]/[mic_malloc] count in {e cells} (one cell per scalar slot in
    the interpreter heap), not bytes; byte-level sizing only matters to
    the machine cost model, which works from array lengths and element
    sizes instead. *)

open Ast

type signature = { args : ty list; ret : ty }

let f1 = { args = [ Tfloat ]; ret = Tfloat }
let f2 = { args = [ Tfloat; Tfloat ]; ret = Tfloat }

let table : (string * signature) list =
  [
    ("sqrt", f1);
    ("exp", f1);
    ("log", f1);
    ("fabs", f1);
    ("sin", f1);
    ("cos", f1);
    ("pow", f2);
    ("fmin", f2);
    ("fmax", f2);
    ("abs", { args = [ Tint ]; ret = Tint });
    ("imin", { args = [ Tint; Tint ]; ret = Tint });
    ("imax", { args = [ Tint; Tint ]; ret = Tint });
    ("print_int", { args = [ Tint ]; ret = Tvoid });
    ("print_float", { args = [ Tfloat ]; ret = Tvoid });
    ("print_bool", { args = [ Tbool ]; ret = Tvoid });
    ("malloc", { args = [ Tint ]; ret = Tptr Tvoid });
    ("mic_malloc", { args = [ Tint ]; ret = Tptr Tvoid });
    ("free", { args = [ Tptr Tvoid ]; ret = Tvoid });
    ("mic_free", { args = [ Tptr Tvoid ]; ret = Tvoid });
  ]

let find name = List.assoc_opt name table

(** Pure float builtins, used by the interpreter. *)
let eval_float1 = function
  | "sqrt" -> Some Float.sqrt
  | "exp" -> Some Float.exp
  | "log" -> Some Float.log
  | "fabs" -> Some Float.abs
  | "sin" -> Some Float.sin
  | "cos" -> Some Float.cos
  | _ -> None

let eval_float2 = function
  | "pow" -> Some Float.pow
  | "fmin" -> Some Float.min
  | "fmax" -> Some Float.max
  | _ -> None
