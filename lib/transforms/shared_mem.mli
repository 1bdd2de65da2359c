(** The shared-memory transformation (Section V), source-to-source.

    An offload whose data clauses carry pointer-based structures
    (arrays whose element type contains a pointer) cannot use plain
    section copies: the pointers arrive on the device holding host
    addresses and fault on the first dereference.  This pass rewrites
    such an offload into the paper's scheme — preallocated device
    buffers ([mic_malloc], Section V-A), one DMA per structure with the
    [translate()] clause rebasing intra-array pointers (the delta-table
    translation of Section V-B), the body retargeted at the device
    buffers, and [inout] structures translated back afterwards.

    Its headline property is the paper's: it {e enables} executions
    that previously failed outright.  Restricted to self-contained
    structures (pointers stay within their own array — what the
    bump-allocating arena of Section V-A produces). *)

type failure =
  | No_pointer_arrays
  | Pointer_output of string
      (** a pointer-bearing pure output: device-created pointers cannot
          be translated back *)
  | No_offload_spec
  | Unknown_function of string

val pp_failure : Format.formatter -> failure -> unit

val cells_of_ty : Minic.Ast.program -> Minic.Ast.ty -> int option
(** Cells per value, mirroring the interpreter's layout (one cell per
    scalar/pointer slot); [None] for dynamically sized types. *)

val applicable : Minic.Ast.program -> Analysis.Offload_regions.region -> bool

val transform :
  Minic.Ast.program ->
  Analysis.Offload_regions.region ->
  (Minic.Ast.program, failure) result

val transform_all : Minic.Ast.program -> Minic.Ast.program * int
