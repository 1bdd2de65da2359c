(** Classification of array accesses inside a (candidate) parallel
    loop: the analysis behind the data-streaming legality check (all
    accesses affine, Section III-A) and the regularization pattern
    detection (Section IV). *)

type kind =
  | Affine of Affine.t  (** [A[a*i + b]] with loop-invariant [b] *)
  | Gather of { via : string; via_index : Affine.t }
      (** [A[B[e]]] with [B[e]] itself affine — the reordering pattern *)
  | Opaque  (** anything else involving the loop index *)

type direction = Read | Write

type t = {
  arr : string;
  index : Minic.Ast.expr;
  kind : kind;
  dir : direction;
  guarded : bool;  (** under a conditional inside the loop body *)
}

exception Unknown_array of string
(** Raised by {!summarize} on an array with no recorded access — the
    analysis-level analogue of the interpreter's
    ["clause on unbound variable"] runtime error, instead of a bare
    [Not_found] that names nothing. *)

val is_affine : t -> bool

val of_block :
  index:string -> guarded:bool -> t list -> Minic.Ast.block -> t list
(** Accumulate accesses of a block (raw, without the locality
    demotion below). *)

val of_loop : Minic.Ast.for_loop -> t list
(** All array accesses of a loop, in source order.  Affine offsets
    that read variables declared inside the body (inner loop indexes,
    data-dependent cursors) are demoted to {!Opaque}, since their
    value is unavailable when slicing transfers. *)

val arrays : t list -> string list
(** Accessed arrays, deduplicated, in first-access order. *)

val all_affine : t list -> bool
(** The streaming legality check. *)

(** Per-array summary used to build data clauses and block slices. *)
type summary = {
  name : string;
  reads : bool;
  writes : bool;
  guarded_any : bool;
  kinds : kind list;
  max_coeff : int option;
      (** max |coefficient| over affine accesses; [None] when any
          access is non-affine *)
  offsets : Minic.Ast.expr list;  (** affine offsets, for extents *)
}

val summarize : t list -> summary list
