(** Apricot-style automatic offload insertion: wrap every provably
    parallel [#pragma omp parallel for] loop in an [#pragma offload]
    with inferred [in]/[out]/[inout] clauses.

    Clause roles come from use/def analysis ({!Analysis.Liveness});
    section extents come from the declared array size when available
    and otherwise from the access analysis (max touched element). *)

val transform_all : Minic.Ast.program -> Minic.Ast.program * int
(** Offload every candidate; unoffloadable ones stay on the host. *)
