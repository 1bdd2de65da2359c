(** Variable use/def analysis — the Apricot-style machinery behind
    automatic [in]/[out]/[inout] clause inference for offloaded
    regions.  Locally declared variables are excluded: only data
    crossing the region boundary needs transferring. *)

module SS : Set.S with type elt = string

type info = {
  uses : SS.t;  (** variables read from the enclosing scope *)
  defs : SS.t;  (** variables written in the enclosing scope *)
  decls : SS.t;  (** variables declared inside the region *)
}

val empty : info

val of_block : info -> Minic.Ast.block -> info
(** Accumulate raw use/def/decl sets (no local filtering). *)

val of_region : Minic.Ast.block -> info
(** Use/def information for a region, with locally declared names
    removed from [uses]/[defs]. *)

val clause_roles :
  is_array:(string -> bool) ->
  Minic.Ast.block ->
  string list * string list * string list
(** Partition the boundary-crossing arrays of a region into LEO clause
    roles [(ins, outs, inouts)].  Scalars are copied automatically by
    the offload runtime and get no clause. *)
