(** Human-readable rendering of engine schedules. *)

val pp_summary : Format.formatter -> Engine.result -> unit
(** Makespan plus per-resource busy time and utilization. *)

val gantt : ?width:int -> Engine.result -> string
(** Text Gantt chart: one row per resource ([C] host, [K] kernels,
    [>] h2d, [<] d2h), [width] columns spanning the makespan. *)

val top_tasks : ?n:int -> Engine.result -> Engine.placed list
(** The [n] longest tasks, for quick diagnosis. *)

(** {1 Profile breakdown} *)

type phase_stat = {
  ph_kind : Obs.kind;
  ph_count : int;
  ph_bytes : float;
  ph_seconds : float;
}

val pp_profile : ?obs:Obs.t -> Format.formatter -> Engine.result -> unit
(** The [--profile] report: per-resource utilization, the per-phase
    breakdown table and, with [?obs], the counter values. *)

val profile_json : ?obs:Obs.t -> Engine.result -> Obs.Json.t
(** JSON export of the same profile.  Schema:
    [{ makespan_s; tasks; resources: [{name; busy_s; utilization}];
       phases: [{kind; count; bytes; seconds; pct_makespan}];
       counters; histograms }] — counters/histograms only when [?obs]
    is supplied. *)
