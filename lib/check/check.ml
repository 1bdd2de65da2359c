(** Differential transform validation.

    Every COMP optimization is a source-to-source rewrite that must be
    observationally equivalent to the original program; this library is
    the harness that checks it.  {!equiv} is the oracle: it runs the
    original and the transformed program through the dual-address-space
    reference interpreter ({!Minic.Interp}) and compares everything
    observable — printed output, [main]'s return value, and the final
    contents of global storage — returning a structured {!verdict}.

    Around the oracle:
    - {!Genprog} generates whole well-typed MiniC programs from
      parameterized access-pattern families, so each transform's
      [applicable] predicate is exercised positively and negatively;
    - {!Shrink} minimizes any diverging program, and {!Corpus} records
      it under [test/corpus/regressions/] for deterministic replay;
    - {!Inject} seeds a deliberate rewrite bug, validating that the
      harness catches, shrinks, and records what it is meant to catch;
    - {!Metamorphic} checks the cost model's own invariants on
      simulated plans, where there is no output to diff.

    Drivers: [compc check] (one file through {!check_program}, or
    {!check_faulted} under a fault plan; generated instances through
    {!sweep}, which runs {!check_program} on each), the [check] mode
    of [bench/main.ml] (the workload registry) and the benchmark's
    [check] workload, which calls {!check_program} as the sweep does. *)

module Genprog = Genprog
module Shrink = Shrink
module Corpus = Corpus
module Inject = Inject
module Metamorphic = Metamorphic

(** {1 The transforms under test} *)

type transform = Streaming | Regularize | Merge | Soa | Shared | Residency

let all_transforms = [ Streaming; Regularize; Merge; Soa; Shared; Residency ]

let transform_name = function
  | Streaming -> "streaming"
  | Regularize -> "regularize"
  | Merge -> "merge"
  | Soa -> "soa"
  | Shared -> "shared"
  | Residency -> "residency"

let transform_of_name s =
  List.find_opt (fun t -> transform_name t = s) all_transforms

(** [apply txf prog] runs one whole-program transform and returns the
    rewritten program with the number of rewrite applications (0 means
    the transform was not applicable anywhere — the identity). *)
let apply ?(nblocks = 4) txf prog =
  (* deterministic generated names per (program, transform), whichever
     domain of a parallel sweep runs the rewrite *)
  Transforms.Util.reset_fresh ();
  match txf with
  | Streaming -> Transforms.Streaming.transform_all ~nblocks prog
  | Regularize ->
      let p, applied =
        Transforms.Regularize.transform_all_kinds
          ~kinds:[ Transforms.Regularize.Reorder; Transforms.Regularize.Split ]
          prog
      in
      (p, List.length applied)
  | Soa ->
      let p, applied =
        Transforms.Regularize.transform_all_kinds
          ~kinds:[ Transforms.Regularize.Soa ] prog
      in
      (p, List.length applied)
  | Merge -> Transforms.Merge_offload.transform_all prog
  | Shared -> Transforms.Shared_mem.transform_all prog
  | Residency -> Residency.transform prog

let applicable ?nblocks txf prog = snd (apply ?nblocks txf prog) > 0

(** {1 The oracle} *)

type divergence =
  | Output_line of { line : int; orig : string; transformed : string }
      (** first differing line of printed output (1-based) *)
  | Return_value of { orig : string; transformed : string }
  | Global_cell of {
      name : string;
      cell : int;
      orig : string;
      transformed : string;
    }  (** first differing cell of a global's final storage *)

type verdict =
  | Equal
  | Diverged of divergence
  | Orig_failed of string
      (** the original failed where the transformed program ran — for
          an {e enabling} transform (shared-memory lowering of
          pointer-based data the device cannot otherwise touch) this is
          the expected success mode *)
  | Transform_failed of string
      (** the transformed program fails to typecheck or run where the
          original ran: always a transform bug *)
  | Both_failed of { orig_err : string; transformed_err : string }

let value_str = function
  | Minic.Interp.Vint n -> string_of_int n
  | Minic.Interp.Vfloat f -> Printf.sprintf "%.6g" f
  | Minic.Interp.Vbool b -> string_of_bool b
  | Minic.Interp.Vptr _ -> "<ptr>"
  | Minic.Interp.Vundef -> "<undef>"

(* Cell-level comparison with wildcards: an undefined original cell
   constrains nothing (the transform may initialize scratch), and
   pointer values only have to stay pointers (allocation order shifts
   legitimately under rewrites). *)
let same_value a b =
  match (a, b) with
  | Minic.Interp.Vundef, _ -> true
  | Minic.Interp.Vptr _, Minic.Interp.Vptr _ -> true
  | a, b -> a = b

let diff_output a b =
  let la = String.split_on_char '\n' a in
  let lb = String.split_on_char '\n' b in
  let eof = "<end of output>" in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la', y :: lb' ->
        if String.equal x y then go (i + 1) la' lb'
        else Some (Output_line { line = i; orig = x; transformed = y })
    | x :: _, [] -> Some (Output_line { line = i; orig = x; transformed = eof })
    | [], y :: _ -> Some (Output_line { line = i; orig = eof; transformed = y })
  in
  go 1 la lb

let diff_globals ga gb =
  List.fold_left
    (fun acc (name, cells) ->
      match acc with
      | Some _ -> acc
      | None -> (
          match List.assoc_opt name gb with
          | None ->
              Some
                (Global_cell
                   {
                     name;
                     cell = 0;
                     orig = "<present>";
                     transformed = "<missing>";
                   })
          | Some cells' ->
              let rec go i xs ys =
                match (xs, ys) with
                | [], [] -> None
                | x :: xs', y :: ys' ->
                    if same_value x y then go (i + 1) xs' ys'
                    else
                      Some
                        (Global_cell
                           {
                             name;
                             cell = i;
                             orig = value_str x;
                             transformed = value_str y;
                           })
                | _ ->
                    Some
                      (Global_cell
                         {
                           name;
                           cell = i;
                           orig = Printf.sprintf "<%d cells>" (List.length cells);
                           transformed =
                             Printf.sprintf "<%d cells>" (List.length cells');
                         })
              in
              go 0 cells cells'))
    None ga

let compare_outcomes (a : Minic.Interp.outcome) (b : Minic.Interp.outcome) =
  match diff_output a.output b.output with
  | Some d -> Diverged d
  | None ->
      if not (same_value a.ret b.ret) then
        Diverged
          (Return_value
             { orig = value_str a.ret; transformed = value_str b.ret })
      else (
        match diff_globals a.globals b.globals with
        | Some d -> Diverged d
        | None -> Equal)

(* The verdict on [transformed] against the original's outcome: both
   runs are forced only once [transformed] typechecks. *)
let judge orig transformed ran =
  match Minic.Typecheck.check_program transformed with
  | Error e -> Transform_failed ("type error: " ^ e)
  | Ok _ -> (
      match (Lazy.force orig, Lazy.force ran) with
      | Error oe, Error te -> Both_failed { orig_err = oe; transformed_err = te }
      | Error oe, Ok _ -> Orig_failed oe
      | Ok _, Error te -> Transform_failed te
      | Ok oa, Ok ob -> compare_outcomes oa ob)

(** [equiv ?engine ?fuel orig transformed] runs both programs and
    compares printed output, return value, and final global storage.
    [transformed] is typechecked first: a transform that produces
    ill-typed code is a {!Transform_failed} before anything runs.

    [engine] selects the evaluator — {!Minic.Interp.Compiled} (the
    default: the closure-compiling fast evaluator, compiling through
    its per-domain cache, so repeated checks of one original compile
    it once) or {!Minic.Interp.Reference} (the tree-walking
    interpreter, the [--eval reference] escape hatch).  Both produce
    identical verdicts; the engine-equivalence suite and the [@perf]
    alias enforce it. *)
let equiv ?(engine = Minic.Interp.Compiled) ?fuel orig transformed =
  let run = Minic.Compile_eval.run ~engine ?fuel in
  judge (lazy (run orig)) transformed (lazy (run transformed))

(** Is [verdict] acceptable for [txf]?  [Equal] always is; so is both
    sides failing identically before the transform even matters.  An
    original-only failure is acceptable only for the enabling
    shared-memory transform (it exists to make previously-crashing
    device code run). *)
let verdict_ok txf = function
  | Equal -> true
  | Both_failed _ -> true
  | Orig_failed _ -> txf = Shared
  | Diverged _ | Transform_failed _ -> false

let divergence_str = function
  | Output_line { line; orig; transformed } ->
      Printf.sprintf "output line %d: %S vs %S" line orig transformed
  | Return_value { orig; transformed } ->
      Printf.sprintf "return value: %s vs %s" orig transformed
  | Global_cell { name; cell; orig; transformed } ->
      Printf.sprintf "global %s[%d]: %s vs %s" name cell orig transformed

let verdict_str = function
  | Equal -> "equal"
  | Diverged d -> "diverged at " ^ divergence_str d
  | Orig_failed e -> "original failed: " ^ e
  | Transform_failed e -> "transformed program failed: " ^ e
  | Both_failed { orig_err; _ } -> "both failed: " ^ orig_err

(** {1 Checking one program} *)

type report = { transform : transform; sites : int; verdict : verdict }

(* The one per-transform loop.  Each transform in [transforms] is
   applied alone to [prog], its rewrite corrupted first under [inject]
   and judged against the original, which runs at most once.  [k]
   receives each report together with the run of the program the
   transform left (the original itself where it did not apply),
   forced at most once, by the verdict or by [k].  Neither side
   compiles through the per-domain cache: these programs run here once
   each, and caching them would only fill the cache of a long-lived
   pool domain. *)
let each_transform ~engine ?fuel ?nblocks ~inject ~transforms prog k =
  let run p =
    match engine with
    | Minic.Interp.Reference -> Minic.Interp.run ?fuel p
    | Minic.Interp.Compiled ->
        Minic.Compile_eval.exec ?fuel (Minic.Compile_eval.compile p)
  in
  let orig = lazy (run prog) in
  List.map
    (fun txf ->
      let prog', sites = apply ?nblocks txf prog in
      if sites = 0 then k { transform = txf; sites; verdict = Equal } orig
      else
        let prog' = if inject then Inject.corrupt prog' else prog' in
        let ran = lazy (run prog') in
        k { transform = txf; sites; verdict = judge orig prog' ran } ran)
    transforms

(** Every transform in [transforms] applied (independently) to [prog],
    with its site count and oracle verdict.  [inject] corrupts each
    rewritten program first — the harness must then flag it.

    The verdicts are those of {!equiv} on each rewrite, but the
    original runs once, at the first rewrite that needs it, and
    neither side compiles through the per-domain cache. *)
let check_program ?(engine = Minic.Interp.Compiled) ?fuel ?nblocks
    ?(inject = false) ?(transforms = all_transforms) prog =
  each_transform ~engine ?fuel ?nblocks ~inject ~transforms prog (fun r _ ->
      r)

(** {1 Generated-program sweeps} *)

type 'a swept = {
  sw_pattern : Genprog.pattern;
  sw_what : string;  (** ["generated pattern=P seed=S"] *)
  sw_prog : Minic.Ast.program;  (** the generated original *)
  sw_extra : 'a;  (** [extra sw_prog], the caller's own oracles *)
  sw_reports : report list;  (** {!check_program} on [sw_prog] *)
}

(** [sweep ~extra ~runs ~seed ()] checks [runs] instances of every
    {!Genprog} family.  Run [k] generates each family, in
    {!Genprog.all_patterns} order, at the seed
    [Parallel.derive_seed ~root:seed k], which no pool width changes.
    Each run is one task on the [jobs]-wide pool: it parses and
    typechecks each program, hands it to [extra], then checks it with
    {!check_program}.  The results come back in submission order, so
    a caller that prints them in that order prints the same bytes at
    any width.  A program that fails to parse or typecheck is a
    generator bug: it raises [Failure] with the message and the
    source. *)
let sweep ?jobs ?engine ?fuel ?nblocks ?inject ?transforms ~extra ~runs
    ~seed () =
  let run k =
    let s = Parallel.derive_seed ~root:seed k in
    List.map
      (fun pattern ->
        let src = Genprog.generate pattern ~seed:s in
        let what =
          Printf.sprintf "generated pattern=%s seed=%d"
            (Genprog.pattern_name pattern)
            s
        in
        let bug stage e =
          failwith
            (Printf.sprintf "generator bug (%s): %s: %s\n%s" what stage e src)
        in
        let prog =
          match Minic.Parser.program_of_string src with
          | Error e -> bug "parse" e
          | Ok p -> (
              match Minic.Typecheck.check_program p with
              | Error e -> bug "type" e
              | Ok _ -> p)
        in
        let extra = extra prog in
        let reports =
          check_program ?engine ?fuel ?nblocks ?inject ?transforms prog
        in
        {
          sw_pattern = pattern;
          sw_what = what;
          sw_prog = prog;
          sw_extra = extra;
          sw_reports = reports;
        })
      Genprog.all_patterns
  in
  List.concat (Parallel.run ?jobs runs run)

(** {1 Fault-plan differential checking}

    The oracle above validates the rewrite's semantics; this validates
    the fault-model runtime around it.  The transformed program is
    replayed on the machine model twice — fault-free, and under an
    injected fault plan with full recovery (retries, timeouts, CPU
    fallback) — and must still produce the oracle answer: injected
    faults change {e when} things finish, never {e what} the program
    computes, and recovery must complete rather than deadlock. *)

type faulted_report = {
  f_transform : transform;
  f_sites : int;
  f_verdict : verdict;  (** oracle verdict on the transformed program *)
  f_clean_s : float;  (** fault-free replay makespan *)
  f_faulted_s : float;  (** recovered makespan under the fault plan *)
  f_fellback : bool;  (** the device died and the CPU took over *)
  f_died : bool;  (** device death the policy could not recover *)
}

(** Each transform applied to [prog], oracle-checked as by
    {!check_program}, then the events of the run that judged it (the
    original's where it did not apply) replayed clean and under [spec]
    with recovery. *)
let check_faulted ?(engine = Minic.Interp.Compiled) ?fuel ?nblocks
    ?(transforms = all_transforms) ~spec prog =
  let clean_cfg = Machine.Config.paper_default in
  let fault_cfg = Machine.Config.with_faults clean_cfg spec in
  each_transform ~engine ?fuel ?nblocks ~inject:false ~transforms prog
    (fun r ran ->
      let events =
        match Lazy.force ran with
        | Ok o -> o.Minic.Interp.events
        | Error _ -> []
      in
      let clean_s =
        (Runtime.Replay.schedule clean_cfg events).Machine.Engine.makespan
      in
      let faulted_s, fellback, died =
        match Runtime.Replay.schedule_recovered fault_cfg events with
        | r ->
            ( r.Machine.Engine.result.makespan,
              r.Machine.Engine.died_at <> None,
              false )
        | exception Fault.Device_dead _ -> (Float.nan, false, true)
      in
      {
        f_transform = r.transform;
        f_sites = r.sites;
        f_verdict = r.verdict;
        f_clean_s = clean_s;
        f_faulted_s = faulted_s;
        f_fellback = fellback;
        f_died = died;
      })

(** Acceptable faulted run: the oracle verdict holds and recovery
    completed (no unrecovered device death, makespan finite). *)
let faulted_ok r =
  verdict_ok r.f_transform r.f_verdict
  && (not r.f_died)
  && Float.is_finite r.f_faulted_s

(** {1 Migration differential checking}

    Validates the multi-device degradation ladder.  The program runs
    under {e both} evaluator engines (the cross-engine oracle: same
    output, return value and globals), then its trace is scheduled by
    {!Runtime.Migrate} twice — on the clean single-device machine and
    on an [N]-device machine under a per-device fault plan.  Faults
    and migration may only change {e when} things finish, never what
    the program computes, so beyond the oracle the check enforces the
    scheduling contract: {e conservation} (every block executes
    exactly once, on a device that was alive when it finished, with
    host placements only after total device loss) and a finite
    recovered makespan. *)

type migrated_report = {
  mg_verdict : verdict;  (** cross-engine oracle on the program itself *)
  mg_blocks : int;  (** offload blocks in the trace *)
  mg_clean_s : float;  (** clean single-device makespan *)
  mg_faulted_s : float;  (** recovered multi-device makespan *)
  mg_migrated : int;  (** block re-queues off dead devices *)
  mg_dead : int list;  (** devices declared dead *)
  mg_fellback : bool;  (** every device died; the host ran the rest *)
  mg_bytes_moved : float;  (** wire bytes under the fault plan *)
  mg_conservation : string option;  (** [Some msg] when violated *)
  mg_died : bool;  (** unrecoverable: all devices dead, no fallback *)
}

(* every block exactly once; nothing finishes on a device after its
   death; host placements only when the ladder fell all the way back *)
let migration_conserved ~blocks (m : Runtime.Migrate.outcome) =
  let ids =
    List.sort compare
      (List.map (fun p -> p.Runtime.Migrate.pl_block) m.m_placements)
  in
  if ids <> List.init blocks Fun.id then
    Some
      (Printf.sprintf "placement set is not {0..%d} exactly once"
         (blocks - 1))
  else
    let death d = List.assoc_opt d m.Runtime.Migrate.m_dead in
    let offender =
      List.find_opt
        (fun (p : Runtime.Migrate.placement) ->
          if p.pl_dev < 0 then not m.Runtime.Migrate.m_fellback
          else
            match death p.pl_dev with
            | Some t -> p.pl_finish > t +. 1e-9
            | None -> false)
        m.m_placements
    in
    Option.map
      (fun (p : Runtime.Migrate.placement) ->
        if p.pl_dev < 0 then
          Printf.sprintf "block %d ran on the host without fallback"
            p.pl_block
        else
          Printf.sprintf "block %d finished on dev%d after its death"
            p.pl_block p.pl_dev)
      offender

(** Run the migration oracle for [prog] on a [devices]x[streams]
    machine under [spec].  [?engine] picks the primary engine; the
    other one is always run too for the cross-engine verdict. *)
let check_migrated ?(engine = Minic.Interp.Compiled) ?fuel ?params
    ~devices ~streams ~spec prog =
  let other =
    match engine with
    | Minic.Interp.Compiled -> Minic.Interp.Reference
    | Minic.Interp.Reference -> Minic.Interp.Compiled
  in
  let run e = Minic.Compile_eval.run ~engine:e ?fuel prog in
  let trivial verdict =
    {
      mg_verdict = verdict;
      mg_blocks = 0;
      mg_clean_s = 0.;
      mg_faulted_s = 0.;
      mg_migrated = 0;
      mg_dead = [];
      mg_fellback = false;
      mg_bytes_moved = 0.;
      mg_conservation = None;
      mg_died = false;
    }
  in
  match (run engine, run other) with
  | Error oe, Error te ->
      trivial (Both_failed { orig_err = oe; transformed_err = te })
  | Error oe, Ok _ -> trivial (Orig_failed oe)
  | Ok _, Error te -> trivial (Transform_failed te)
  | Ok oa, Ok ob -> (
      let verdict = compare_outcomes oa ob in
      let events = oa.Minic.Interp.events in
      let clean_cfg = Machine.Config.paper_default in
      let fault_cfg =
        Machine.Config.with_faults
          (Machine.Config.with_devices clean_cfg ~devices ~streams)
          spec
      in
      let clean = Runtime.Migrate.schedule ?params clean_cfg events in
      let blocks = List.length clean.Runtime.Migrate.m_placements in
      let clean_s = clean.Runtime.Migrate.m_result.Machine.Engine.makespan in
      match Runtime.Migrate.schedule ?params fault_cfg events with
      | m ->
          {
            mg_verdict = verdict;
            mg_blocks = blocks;
            mg_clean_s = clean_s;
            mg_faulted_s = m.Runtime.Migrate.m_result.Machine.Engine.makespan;
            mg_migrated = m.Runtime.Migrate.m_migrated;
            mg_dead = List.map fst m.Runtime.Migrate.m_dead;
            mg_fellback = m.Runtime.Migrate.m_fellback;
            mg_bytes_moved = m.Runtime.Migrate.m_bytes_moved;
            mg_conservation = migration_conserved ~blocks m;
            mg_died = false;
          }
      | exception Fault.Device_dead _ ->
          {
            (trivial verdict) with
            mg_blocks = blocks;
            mg_clean_s = clean_s;
            mg_faulted_s = Float.nan;
            mg_died = true;
          })

(** Acceptable migrated run: cross-engine oracle holds, recovery
    completed, conservation holds, makespan finite. *)
let migrated_ok r =
  (match r.mg_verdict with Equal | Both_failed _ -> true | _ -> false)
  && (not r.mg_died)
  && r.mg_conservation = None
  && Float.is_finite r.mg_faulted_s

(** {1 Residency differential checking}

    Output equivalence is necessary but not sufficient for the
    residency pass: it exists to {e move less data}, so the check also
    holds it to a stats contract against the non-resident oracle —
    copy-backs and kernel launches are untouched (same [d2h] cells,
    same offload count), the transfer-event count grows by at most the
    hoisted pre-loop transfers, and with no hoists the [h2d] traffic
    can only shrink (a hoisted transfer may legitimately pay for a
    loop that then runs zero times). *)

type residency_report = {
  rr_sites : int;  (** elided clauses + hoisted transfers *)
  rr_hoists : int;
  rr_verdict : verdict;
  rr_orig_h2d : int;  (** oracle host-to-device cells *)
  rr_res_h2d : int;  (** same, after the residency rewrite *)
  rr_orig_d2h : int;
  rr_res_d2h : int;
  rr_contract : string option;
      (** [Some msg] when a stats inequality is violated *)
}

let residency_ok r = verdict_ok Residency r.rr_verdict && r.rr_contract = None

let check_residency ?(engine = Minic.Interp.Compiled) ?fuel prog =
  let obs = Obs.create () in
  Transforms.Util.reset_fresh ();
  let prog', sites = Residency.transform ~obs prog in
  let hoists = Obs.count obs "residency.hoist" in
  let trivial =
    {
      rr_sites = sites;
      rr_hoists = hoists;
      rr_verdict = Equal;
      rr_orig_h2d = 0;
      rr_res_h2d = 0;
      rr_orig_d2h = 0;
      rr_res_d2h = 0;
      rr_contract = None;
    }
  in
  if sites = 0 then trivial
  else
    let verdict = equiv ~engine ?fuel prog prog' in
    let run = Minic.Compile_eval.run ~engine ?fuel in
    match (run prog, run prog') with
    | Ok a, Ok b ->
        let transfers (o : Minic.Interp.outcome) =
          List.length
            (List.filter
               (function Minic.Interp.Ev_transfer _ -> true | _ -> false)
               o.events)
        in
        let offloads (o : Minic.Interp.outcome) = o.stats.offloads in
        let sa = a.Minic.Interp.stats and sb = b.Minic.Interp.stats in
        let contract =
          if sb.cells_d2h <> sa.cells_d2h then
            Some
              (Printf.sprintf "d2h cells changed: %d vs oracle %d"
                 sb.cells_d2h sa.cells_d2h)
          else if offloads b <> offloads a then
            Some
              (Printf.sprintf "offload count changed: %d vs oracle %d"
                 (offloads b) (offloads a))
          else if transfers b > transfers a + hoists then
            Some
              (Printf.sprintf
                 "transfer events grew: %d vs oracle %d + %d hoists"
                 (transfers b) (transfers a) hoists)
          else if hoists = 0 && sb.cells_h2d > sa.cells_h2d then
            Some
              (Printf.sprintf
                 "h2d cells grew without hoists: %d vs oracle %d"
                 sb.cells_h2d sa.cells_h2d)
          else None
        in
        {
          rr_sites = sites;
          rr_hoists = hoists;
          rr_verdict = verdict;
          rr_orig_h2d = sa.cells_h2d;
          rr_res_h2d = sb.cells_h2d;
          rr_orig_d2h = sa.cells_d2h;
          rr_res_d2h = sb.cells_d2h;
          rr_contract = None;
        }
        |> fun r -> { r with rr_contract = contract }
    | _ ->
        (* one side failed: the oracle verdict alone decides *)
        { trivial with rr_sites = sites; rr_verdict = verdict }

(** {1 Shrinking} *)

(* A shrink candidate must keep failing the *same way*: well-typed,
   transform still applicable, oracle still reporting a divergence.  A
   candidate the check raises on (a rewrite that cannot handle it) is
   no counterexample. *)
let diverges ?engine ?fuel ?nblocks ~inject txf prog =
  match Minic.Typecheck.check_program prog with
  | Error _ -> false
  | Ok _ -> (
      match
        check_program ?engine ?fuel ?nblocks ~inject ~transforms:[ txf ] prog
      with
      | exception _ -> false
      | [ { verdict = Diverged _; _ } ] -> true
      | _ -> false)

(** Minimize a program whose [txf]-rewrite diverges (with the same
    [inject] setting used to find it). *)
let minimize_diverging ?engine ?fuel ?nblocks ?(inject = false) ?max_tries txf
    prog =
  Shrink.minimize ?max_tries
    ~still_failing:(fun p -> diverges ?engine ?fuel ?nblocks ~inject txf p)
    prog

(** {1 Expected applicability}

    The generator's truth table: for each pattern family, whether a
    transform must ([Some true]), must not ([Some false]), or may
    ([None], instance-dependent) find an applicable site.  Property
    tests check [applicable] against every [Some]. *)
let expected_applicable pattern transform =
  let exp ~streaming ~regularize ~merge ~soa ~shared ~residency =
    match transform with
    | Streaming -> streaming
    | Regularize -> regularize
    | Merge -> merge
    | Soa -> soa
    | Shared -> shared
    | Residency -> residency
  in
  let y = Some true and n = Some false and u = None in
  match (pattern : Genprog.pattern) with
  | Dense ->
      exp ~streaming:y ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:n
  | Stencil ->
      exp ~streaming:y ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:n
  | Sparse_stride ->
      exp ~streaming:u ~regularize:y ~merge:n ~soa:n ~shared:n ~residency:n
  | Step_loop ->
      exp ~streaming:n ~regularize:u ~merge:n ~soa:n ~shared:n ~residency:n
  | Gather ->
      exp ~streaming:n ~regularize:y ~merge:n ~soa:n ~shared:n ~residency:n
  | Guarded_gather ->
      exp ~streaming:n ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:n
  | Aos ->
      exp ~streaming:u ~regularize:u ~merge:n ~soa:y ~shared:n ~residency:n
  | Chain ->
      exp ~streaming:u ~regularize:u ~merge:n ~soa:u ~shared:y ~residency:n
  | Multi_offload ->
      exp ~streaming:u ~regularize:n ~merge:y ~soa:n ~shared:n ~residency:y
  | Host_scalar ->
      exp ~streaming:u ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:y
  | Plain_loop ->
      exp ~streaming:n ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:n
  | Inout ->
      exp ~streaming:y ~regularize:n ~merge:n ~soa:n ~shared:n ~residency:n

(** {1 Residency metamorphic relations}

    The inter-offload residency rewrite must commute with
    contract-preserving source mutations:

    - {b widening}: declaring more than an offload needs — an [in]
      clause whose array the body never writes promoted to [inout] —
      only adds copy-backs of unchanged cells, so outputs are the
      same and the rewrite of the widened program must still match
      its own oracle {e and} the pristine program;
    - {b host-write insertion}: a semantically inert host store
      [a[0] = a[0]] after an offload makes the device shadow
      untrusted, so the rewrite may only elide {e fewer} transfers,
      never more, and must still match the mutated oracle.

    Each relation returns [Ok ()] or [Error msg] in the
    {!Metamorphic} style. *)

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

(** Promote every plain [in] section whose array the body provably
    never writes to [inout].  Signalled offloads keep their pipelining
    contract untouched. *)
let widen_in_to_inout prog =
  Minic.Ast.(
    map_funcs
      (fun f ->
        {
          f with
          body =
            map_block
              (fun s ->
                match s with
                | Spragma (Offload spec, body)
                  when Option.is_none spec.signal ->
                    let bw = writes [ body ] in
                    (* an array named by several sections of one spec
                       regrows its shadow without copying, so an added
                       copy-back could write back undefined cells *)
                    let multi arr =
                      List.length
                        (List.filter
                           (fun (s : section) -> s.arr = arr)
                           (spec.ins @ spec.inouts @ spec.outs))
                      > 1
                    in
                    let movable, kept =
                      List.partition
                        (fun (sec : section) ->
                          Option.is_none sec.into
                          && (not bw.w_unknown)
                          && (not (List.mem sec.arr (bw.w_vars @ bw.w_mem)))
                          && (not (List.mem sec.arr spec.nocopy))
                          && not (multi sec.arr))
                        spec.ins
                    in
                    Spragma
                      ( Offload
                          {
                            spec with
                            ins = kept;
                            inouts = spec.inouts @ movable;
                          },
                        body )
                | s -> s)
              f.body;
        })
      prog)

(** Insert [a[0] = a[0]] right after the first offload that declares a
    plain [in] clause; [None] when the program has no such site. *)
let insert_host_write prog =
  let open Minic.Ast in
  let inserted = ref false in
  let pick (spec : offload_spec) =
    List.find_map
      (fun (sec : section) ->
        if Option.is_none sec.into then Some sec.arr else None)
      spec.ins
  in
  let self_write arr =
    Sassign (idx (var arr) (int_ 0), idx (var arr) (int_ 0))
  in
  let rec blk b = List.concat_map stmts b
  and stmts s =
    if !inserted then [ s ]
    else
      match s with
      | Spragma (Offload spec, _) -> (
          match pick spec with
          | Some arr ->
              inserted := true;
              [ s; self_write arr ]
          | None -> [ s ])
      | Sif (c, b1, b2) -> [ Sif (c, blk b1, blk b2) ]
      | Swhile (c, b) -> [ Swhile (c, blk b) ]
      | Sfor fl -> [ Sfor { fl with body = blk fl.body } ]
      | Sblock b -> [ Sblock (blk b) ]
      | Spragma (p, inner) -> (
          match stmts inner with
          | one :: rest -> Spragma (p, one) :: rest
          | [] -> [ s ])
      | s -> [ s ]
  in
  let prog' = map_funcs (fun f -> { f with body = blk f.body }) prog in
  if !inserted then Some prog' else None

let residency_failure r =
  match r.rr_contract with Some m -> m | None -> verdict_str r.rr_verdict

let elide_total obs =
  Obs.count obs "residency.elide.in" + Obs.count obs "residency.elide.inout"

(** Widen [prog]'s pragmas, then require the residency rewrite of the
    widened program to match both its own oracle and the pristine
    program. *)
let check_residency_widened ?(engine = Minic.Interp.Compiled) ?fuel prog =
  let widened = widen_in_to_inout prog in
  let r = check_residency ~engine ?fuel widened in
  let* () =
    if residency_ok r then Ok ()
    else
      errf "widened program fails the residency contract: %s"
        (residency_failure r)
  in
  let widened', _ = Residency.transform widened in
  match equiv ~engine ?fuel prog widened' with
  | Equal | Both_failed _ -> Ok ()
  | v -> errf "widening + residency changed behaviour: %s" (verdict_str v)

(** Insert an inert host write after the first offload, then require
    the rewrite of the mutated program to match its oracle while
    eliding no more than the pristine rewrite did. *)
let check_residency_hostwrite ?(engine = Minic.Interp.Compiled) ?fuel prog =
  match insert_host_write prog with
  | None -> Ok ()
  | Some mutated ->
      let r = check_residency ~engine ?fuel mutated in
      let* () =
        if residency_ok r then Ok ()
        else
          errf "host-written program fails the residency contract: %s"
            (residency_failure r)
      in
      let count p =
        let obs = Obs.create () in
        ignore (Residency.transform ~obs p);
        elide_total obs
      in
      let e0 = count prog and e1 = count mutated in
      if e1 <= e0 then Ok ()
      else errf "inert host write increased elisions: %d -> %d" e0 e1
