(** Vectorization annotation — the role icc's vectorizer plays in the
    paper.  Marks parallel loops [#pragma omp simd] when their bodies
    are vectorizable (unit-stride or invariant affine accesses, no
    inner loops, no irreducible control flow; guards are fine — the
    512-bit units have masks) and reports the blocking reason
    otherwise.  Lets tests assert which rewrites unlock vectorization
    (splitting srad, reordering nn). *)

type blocker =
  | Irregular_access of string  (** gather or opaque index *)
  | Strided_access of string  (** |stride| > 1 defeats vector loads *)
  | Inner_loop
  | Control_flow  (** while/break/continue in the body *)
  | Already_simd

val pp_blocker : Format.formatter -> blocker -> unit

val check : Minic.Ast.for_loop -> (unit, blocker) result
val vectorizable : Minic.Ast.for_loop -> bool

val transform_all : Minic.Ast.program -> Minic.Ast.program * int
