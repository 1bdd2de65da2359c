(** Identification of offloadable / offloaded code regions — the part
    of Apricot that finds the parallel loops worth shipping to the
    coprocessor. *)

type region = {
  func : string;
  ordinal : int;  (** position among regions of the same function *)
  loop : Minic.Ast.for_loop;
  spec : Minic.Ast.offload_spec option;
      (** [Some] when the loop already carries [#pragma offload] *)
  parallel_pragma : bool;  (** has [#pragma omp parallel for] *)
}

val peel :
  Minic.Ast.pragma list ->
  Minic.Ast.stmt ->
  (Minic.Ast.pragma list * Minic.Ast.for_loop) option
(** Strip the pragma chain in front of a [for] loop, if any. *)

val of_program : Minic.Ast.program -> region list
(** All regions, including loops nested inside other regions' bodies
    (but never double-reporting a pragma chain). *)

val candidates : Minic.Ast.program -> region list
(** Parallel loops not yet offloaded that are provably parallel:
    targets for {!Transforms.Insert_offload}. *)

val offloaded : Minic.Ast.program -> region list
(** Regions already carrying an [#pragma offload]. *)

(** {1 Section bounds}

    Half-open element intervals [\[b_lo, b_hi)] for partial array
    sections: the empty/adjacent cases are unambiguous ([x\[0:4\]] and
    [x\[4:4\]] are adjacent, not overlapping), which clause inference
    and the residency pass depend on. *)

type bounds = { b_lo : int; b_hi : int }

val is_empty : bounds -> bool

val section_bounds : Minic.Ast.section -> bounds option
(** The element interval of a section when start and length are
    compile-time constants; [None] for symbolic or negative bounds. *)

val covers : outer:bounds -> inner:bounds -> bool
(** Every element of [inner] lies in [outer]; empty [inner] always. *)

val overlaps : bounds -> bounds -> bool
(** The intervals share at least one element; empty never overlaps. *)

val affine_touched :
  lo:int -> hi:int -> step:int -> coeff:int -> offset:int -> bounds option
(** Convex hull of [coeff * i + offset] for
    [for (i = lo; i < hi; i += step)] — exact for [|coeff| <= 1],
    an over-approximation for larger strides; [None] if [step <= 0]. *)
