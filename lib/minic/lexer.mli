(** Lexer for MiniC.

    [#pragma] lines are captured verbatim as a single {!Tpragma} token
    carrying the payload after the [pragma] keyword; {!Parser} re-lexes
    the payload to parse clauses. *)

type token =
  | Tident of string
  | Tint_lit of int
  | Tfloat_lit of float
  | Tpragma of string  (** raw text after [#pragma] *)
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tlbracket
  | Trbracket
  | Tsemi
  | Tcomma
  | Tcolon
  | Tdot
  | Tarrow_op  (** [->] *)
  | Tassign
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tpercent
  | Teq
  | Tneq
  | Tlt
  | Tle
  | Tgt
  | Tge
  | Tandand
  | Toror
  | Tbang
  | Tamp
  | Tplusplus
  | Tminusminus
  | Tpluseq
  | Tminuseq
  | Teof

val show_token : token -> string
val equal_token : token -> token -> bool

type located = { tok : token; loc : Srcloc.t }

exception Lex_error of string * Srcloc.t

val is_keyword : string -> bool
(** Reserved words ([int], [for], [struct], ...). *)

val tokenize : string -> located list
(** Tokenize a whole source string; the last element is always
    {!Teof}.  Raises {!Lex_error} on malformed input. *)
