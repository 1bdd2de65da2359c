(** Source locations for diagnostics. *)

type t = { line : int; col : int }

val make : line:int -> col:int -> t

val to_string : t -> string
(** ["line L, column C"], for error messages. *)
