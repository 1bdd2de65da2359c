(** Figure 4: data-transfer vs device-computation time for
    blackscholes, kmeans, nn (normalized by computation). *)

type row = { name : string; transfer_ratio : float; calc_ratio : float }

val rows : unit -> row list
val print : unit -> unit
