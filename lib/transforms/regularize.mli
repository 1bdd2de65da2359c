(** Regularization of irregular memory accesses (Section IV).

    Three rewrites, each turning accesses that defeat streaming and
    512-bit vectorization into unit-stride ones:

    - {b Array reordering} (Figure 8): a gather [A[B[i]]] or a
      sparse strided access [A[k*i + b]] is replaced by a packed array
      built on the host; the loop then reads unit-stride.  Written
      irregular arrays are scattered back after the loop.  Only
      unguarded accesses, as the paper requires; strides whose constant
      offsets cover every residue (nothing wasted) are left alone.
    - {b Loop splitting} (Figure 7, the srad pattern): when the
      irregular accesses all occur in a prefix of scalar-temporary
      declarations, the loop splits in two — the first keeps the
      gathers, the second becomes fully regular and is marked
      [omp simd].
    - {b AoS-to-SoA}: an array of structures accessed as [a[i].f]
      becomes one packed array per accessed field. *)

type failure =
  | No_irregular_access
  | Guarded of string  (** irregular access under a branch: unsafe *)
  | Not_splittable
  | No_offload_spec
  | Unknown_function of string

val pp_failure : Format.formatter -> failure -> unit

type kind = Reorder | Split | Soa

val applicable_kinds :
  Minic.Ast.program -> Analysis.Offload_regions.region -> kind list

val reorder :
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (Minic.Ast.program, failure) result

val split :
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (Minic.Ast.program, failure) result

val aos_to_soa :
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (Minic.Ast.program, failure) result

val transform_all_kinds :
  kinds:kind list ->
  Minic.Ast.program ->
  Minic.Ast.program * (string * kind) list
(** Apply the rewrites in [kinds] that fit each offloaded region;
    returns the (function, kind) applications.  Lets callers (e.g. the
    differential harness) validate reorder/split separately from
    AoS-to-SoA. *)

val transform_all :
  Minic.Ast.program -> Minic.Ast.program * (string * kind) list
(** [transform_all_kinds ~kinds:[Reorder; Split; Soa]]. *)
