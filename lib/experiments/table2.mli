(** Table II: benchmark inventory and per-optimization applicability,
    decided by the compiler analyses on each workload's kernel
    source, checked against the paper's matrix. *)

type row = {
  name : string;
  suite : string;
  input : string;
  kloc : float;
  streaming : bool;
  merging : bool;
  regularization : bool;
  shared : bool;
}

val row : Workloads.Workload.t -> row
val rows : unit -> row list

val matches_paper : row -> bool
val print : unit -> unit
