(** Source locations for lexer/parser diagnostics. *)

type t = { line : int; col : int } [@@deriving show, eq]

let make ~line ~col = { line; col }

let to_string { line; col } = Printf.sprintf "line %d, column %d" line col
