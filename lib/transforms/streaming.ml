(** The data-streaming transformation (Section III).

    An offloaded loop whose array indexes are all affine in the loop
    index ([a*i + b], the paper's legality condition) is rewritten into
    a pipelined two-level loop: the outer loop walks computation blocks,
    transferring block [b+1] asynchronously while block [b] computes on
    the device, exactly as in Figure 5(b).  With
    [~memory:`Double_buffered] the rewrite instead allocates only two
    block-sized device buffers per streamed input (and one per output)
    and alternates between them — Figure 5(c) — which is what caps the
    device memory footprint.

    Thread reuse and offload merging (Section III-C) are separate:
    merging is {!Merge_offload}; thread reuse changes only the execution
    schedule and lives in the runtime plan layer. *)

open Minic.Ast
module A = Analysis.Access
module S = Analysis.Simplify

type failure =
  | No_offload_spec
  | Nonunit_step
  | Variant_bounds
  | Non_affine of string
  | Mixed_coeff of string
  | Nonconst_offset of string
  | Nonscalar_element of string
  | Invariant_out of string
  | No_streamed_input
  | Unknown_function of string
  | Name_clash of string

let pp_failure fmt = function
  | No_offload_spec -> Format.fprintf fmt "loop has no offload pragma"
  | Nonunit_step -> Format.fprintf fmt "loop step is not 1"
  | Variant_bounds -> Format.fprintf fmt "loop bounds are modified in the body"
  | Non_affine a -> Format.fprintf fmt "array %s has a non-affine access" a
  | Mixed_coeff a ->
      Format.fprintf fmt "array %s is accessed with several strides" a
  | Nonconst_offset a ->
      Format.fprintf fmt "array %s has a non-constant access offset" a
  | Nonscalar_element a ->
      Format.fprintf fmt
        "array %s has struct or pointer elements (regularize to SoA or use \
         shared memory first)"
        a
  | Invariant_out a ->
      Format.fprintf fmt "output array %s is written at a loop-invariant index"
        a
  | No_streamed_input -> Format.fprintf fmt "no streamable input array"
  | Unknown_function f -> Format.fprintf fmt "unknown function %s" f
  | Name_clash v ->
      Format.fprintf fmt
        "the program already uses %s, a name the rewrite would declare" v

type role = Rin | Rout | Rinout

type arr_info = {
  name : string;
  role : role;
  coeff : int;  (** 0 = loop-invariant: transferred whole, up-front *)
  min_off : int;
  max_off : int;
  total : expr;  (** element count of the original clause *)
  elem : ty;
}

type info = {
  region : Analysis.Offload_regions.region;
  spec : offload_spec;
  arrays : arr_info list;
  nblocks : int;
}

type memory = Full | Double_buffered

(** {1 Reserved names}

    A rewrite declares fixed names in the block that replaces the
    region: the block-loop scalars below, and per array the device
    buffers of either layout ([<a>_mic], [<a>_mic1], [<a>_mic2],
    [<a>_b]).  A program that already uses one of them would have it
    rebound inside that block, so such a region is refused
    ({!Name_clash}). *)

(* names used by the generated code; deterministic per loop so tests can
   inspect the output *)
let nblk_v = "nblk__"
let bsize_v = "bsize__"
let blk_v = "blk__"
let out_buffer_name arr = arr ^ "_b"

let streamed a = a.coeff >= 1
let is_input a = a.role = Rin || a.role = Rinout
let is_output a = a.role = Rout || a.role = Rinout

(* every declared name ends in one of these suffixes, so a program name
   without one can never clash *)
let could_clash v =
  String.ends_with ~suffix:"__" v
  || String.ends_with ~suffix:"_mic" v
  || String.ends_with ~suffix:"_mic1" v
  || String.ends_with ~suffix:"_mic2" v
  || String.ends_with ~suffix:"_b" v

(* the names of [prog] a rewrite could declare, in program order.  A
   well-typed program declares every name it uses, so its declarations
   are the names it uses. *)
let clash_candidates prog =
  let acc = ref [] in
  let name v = if could_clash v then acc := v :: !acc in
  let decl () = function
    | Sdecl (_, v, _) -> name v
    | Sfor fl -> name fl.index
    | _ -> ()
  in
  List.iter
    (function
      | Gfunc f ->
          name f.fname;
          List.iter (fun p -> name p.pname) f.params;
          fold_stmts decl () f.body
      | Gvar (_, v, _) -> name v
      | Gstruct _ -> ())
    prog;
  List.rev !acc

(* the first of [used] that the rewrite of [arrays] would declare, in
   either memory layout *)
let clash arrays used =
  let declares v =
    String.equal v nblk_v || String.equal v bsize_v || String.equal v blk_v
    || List.exists
         (fun a ->
           String.equal v (Util.mic_name a.name)
           || streamed a && is_input a
              && (String.equal v (Util.mic_name_n a.name 1)
                 || String.equal v (Util.mic_name_n a.name 2))
           || (streamed a && is_output a && String.equal v (out_buffer_name a.name)))
         arrays
  in
  List.find_opt declares used

(** {1 Legality analysis} *)

let ( let* ) = Result.bind

let role_of spec name =
  let in_ = List.exists (fun s -> String.equal s.arr name) in
  if in_ spec.inouts then Some Rinout
  else
    match (in_ spec.ins, in_ spec.outs) with
    | true, true -> Some Rinout
    | true, false -> Some Rin
    | false, true -> Some Rout
    | false, false -> None

let clause_total spec name =
  List.find_map
    (fun s ->
      if String.equal s.arr name then Some (S.add s.start s.len) else None)
    (spec.ins @ spec.outs @ spec.inouts)

(* [used]: {!clash_candidates} of the program the caller rewrites *)
let analyze_with ~used ?(nblocks = 10) prog
    (region : Analysis.Offload_regions.region) =
  let* spec = Option.to_result ~none:No_offload_spec region.spec in
  let* f =
    Option.to_result
      ~none:(Unknown_function region.func)
      (find_func prog region.func)
  in
  let fl = region.loop in
  let* () = if equal_expr fl.step (Int_lit 1) then Ok () else Error Nonunit_step in
  let info = Analysis.Liveness.of_region fl.body in
  let bound_vars = expr_vars fl.lo @ expr_vars fl.hi in
  let* () =
    if List.exists (fun v -> Analysis.Liveness.SS.mem v info.defs) bound_vars
    then Error Variant_bounds
    else Ok ()
  in
  let accesses = A.of_loop fl in
  let* () =
    match List.find_opt (fun a -> not (A.is_affine a)) accesses with
    | Some a -> Error (Non_affine a.arr)
    | None -> Ok ()
  in
  let summaries = A.summarize accesses in
  let arr_info (s : A.summary) =
    match role_of spec s.name with
    | None -> Ok None (* locally declared or scalar-like: not transferred *)
    | Some role ->
        let* coeff =
          match s.max_coeff with
          | Some _ ->
              (* all accesses affine; require a single coefficient *)
              let coeffs =
                List.filter_map
                  (function
                    | A.Affine a when a.Analysis.Affine.coeff <> 0 ->
                        Some a.Analysis.Affine.coeff
                    | _ -> None)
                  s.kinds
              in
              let distinct = List.sort_uniq compare coeffs in
              (match distinct with
              | [] -> Ok 0
              | [ c ] ->
                  (* mixing c*i and invariant accesses on one array is
                     not streamable either way *)
                  if List.exists
                       (function
                         | A.Affine a -> a.Analysis.Affine.coeff = 0
                         | _ -> false)
                       s.kinds
                  then Error (Mixed_coeff s.name)
                  else Ok c
              | _ -> Error (Mixed_coeff s.name))
          | None -> Error (Non_affine s.name)
        in
        let* offs =
          let consts = List.map S.const_int s.offsets in
          if coeff = 0 then Ok (0, 0)
          else if List.exists Option.is_none consts then
            Error (Nonconst_offset s.name)
          else
            let vals = List.filter_map Fun.id consts in
            Ok
              ( List.fold_left min 0 vals,
                List.fold_left max 0 vals )
        in
        let* () =
          if coeff = 0 && (role = Rout || role = Rinout) && s.writes then
            Error (Invariant_out s.name)
          else Ok ()
        in
        let total =
          match clause_total spec s.name with
          | Some t -> t
          | None -> S.mul (Int_lit (max coeff 1)) fl.hi
        in
        let elem =
          match Util.elem_ty prog f s.name with
          | Some t -> t
          | None -> Tfloat
        in
        Ok
          (Some
             {
               name = s.name;
               role;
               coeff;
               min_off = fst offs;
               max_off = snd offs;
               total;
               elem;
             })
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match arr_info s with
        | Ok (Some i) -> collect (i :: acc) rest
        | Ok None -> collect acc rest
        | Error e -> Error e)
  in
  let* arrays = collect [] summaries in
  (* clause arrays never accessed in the body: transfer whole, up-front *)
  let accessed = List.map (fun (a : arr_info) -> a.name) arrays in
  let extra =
    List.filter_map
      (fun (s : section) ->
        if List.mem s.arr accessed then None
        else
          match role_of spec s.arr with
          | None -> None
          | Some role ->
              Some
                {
                  name = s.arr;
                  role;
                  coeff = 0;
                  min_off = 0;
                  max_off = 0;
                  total = S.add s.start s.len;
                  elem =
                    (match Util.elem_ty prog f s.arr with
                    | Some t -> t
                    | None -> Tfloat);
                })
      (spec.ins @ spec.outs @ spec.inouts)
  in
  let arrays = arrays @ extra in
  (* blockwise device buffers are sized in elements: multi-cell (struct)
     or pointer-valued elements would transfer wrong and carry stale
     host addresses — those arrays belong to SoA regularization or the
     shared-memory lowering, not to streaming *)
  let* () =
    match
      List.find_opt
        (fun a ->
          match a.elem with Tint | Tfloat | Tbool -> false | _ -> true)
        arrays
    with
    | Some a -> Error (Nonscalar_element a.name)
    | None -> Ok ()
  in
  let* () =
    if
      List.exists
        (fun a -> a.coeff >= 1 && (a.role = Rin || a.role = Rinout))
        arrays
    then Ok ()
    else Error No_streamed_input
  in
  (* last, so a region refused for any other reason keeps that reason *)
  match clash arrays used with
  | Some v -> Error (Name_clash v)
  | None -> Ok { region; spec; arrays; nblocks }

let analyze ?nblocks prog region =
  analyze_with ~used:(clash_candidates prog) ?nblocks prog region

(** Is the region streamable at all? *)
let applicable prog region =
  match analyze prog region with Ok _ -> true | Error _ -> false

(** {1 Code generation} *)

(* element range of array [a] touched by computation block [blk]:
   iterations [lo + blk*bsize, min(hi, lo + (blk+1)*bsize)) *)
let slice (fl : for_loop) a blk =
  let bstart = S.add fl.lo (S.mul blk (Var bsize_v)) in
  let bend =
    Util.imin fl.hi (S.add fl.lo (S.mul (S.add blk (Int_lit 1)) (Var bsize_v)))
  in
  let c = Int_lit a.coeff in
  (* clamp into [0, total]: an empty trailing block (bstart past the
     iteration space) must yield a slice whose start is still a valid
     address for its zero length; the clamp folds away when the lower
     clamp already reduced the start to a constant 0 *)
  let start_elem =
    match
      S.expr (Util.imax (Int_lit 0) (S.add (S.mul c bstart) (Int_lit a.min_off)))
    with
    | Int_lit 0 -> Int_lit 0
    | s -> Util.imin a.total s
  in
  let end_elem =
    Util.imin a.total (S.add (S.mul c bend) (Int_lit a.max_off))
  in
  let len = Util.imax (Int_lit 0) (S.sub end_elem start_elem) in
  (S.expr start_elem, S.expr len)

(* one offload_transfer moving block [blk] of all streamed inputs, with
   [into] targets given by [dev_name] *)
let in_transfer target (fl : for_loop) arrays ~dev_name ~dev_ofs blk =
  let ins =
    List.filter_map
      (fun a ->
        if streamed a && is_input a then
          let start, len = slice fl a blk in
          Some
            {
              arr = a.name;
              start;
              len;
              into = Some (dev_name a, dev_ofs a blk);
            }
        else None)
      arrays
  in
  Spragma
    ( Offload_transfer { empty_spec with target; ins; signal = Some blk },
      Sblock [] )

(* per-output offload_transfer copying block [blk] back to the host *)
let out_transfers target (fl : for_loop) arrays ~dev_name ~dev_ofs blk =
  List.filter_map
    (fun a ->
      if streamed a && is_output a then
        let start, len = slice fl a blk in
        let dofs = dev_ofs a blk in
        Some
          (Spragma
             ( Offload_transfer
                 {
                   empty_spec with
                   target;
                   outs =
                     [
                       {
                         arr = dev_name a;
                         start = dofs;
                         len;
                         into = Some (a.name, start);
                       };
                     ];
                 },
               Sblock [] ))
      else None)
    arrays

(* the device kernel for block [blk], with arrays renamed to their
   device buffers (shifted when double-buffered) *)
let kernel target (fl : for_loop) arrays ~dev_name ~shift blk =
  let inner_lo = S.expr (S.add fl.lo (S.mul blk (Var bsize_v))) in
  let inner_hi =
    S.expr
      (Util.imin fl.hi
         (S.add fl.lo (S.mul (S.add blk (Int_lit 1)) (Var bsize_v))))
  in
  let body =
    List.fold_left
      (fun body a ->
        Util.rename_array ~shift:(shift a blk) ~arr:a.name ~to_:(dev_name a)
          body)
      fl.body arrays
  in
  Spragma
    ( Offload { empty_spec with target },
      Spragma
        ( Omp_parallel_for,
          Sfor { index = fl.index; lo = inner_lo; hi = inner_hi; step = Int_lit 1; body }
        ) )

let no_shift _ _ = Int_lit 0

(* Full-size device buffers: Figure 5(b) *)
let generate_full (i : info) =
  let fl = i.region.loop in
  let target = i.spec.target in
  let dev_name a = Util.mic_name a.name in
  let decls =
    [
      Sdecl (Tint, nblk_v, Some (Int_lit i.nblocks));
      Sdecl
        ( Tint,
          bsize_v,
          Some
            (S.div
               (S.sub (S.add fl.hi (Var nblk_v)) (S.add fl.lo (Int_lit 1)))
               (Var nblk_v)) );
    ]
    @ List.map
        (fun a ->
          Sdecl
            ( Tptr a.elem,
              dev_name a,
              Some (Cast (Tptr a.elem, Call ("mic_malloc", [ a.total ]))) ))
        i.arrays
  in
  let upfront =
    List.filter_map
      (fun a ->
        if (not (streamed a)) && is_input a then
          Some
            (Spragma
               ( Offload_transfer
                   {
                     empty_spec with
                     target;
                     ins =
                       [
                         {
                           arr = a.name;
                           start = Int_lit 0;
                           len = a.total;
                           into = Some (dev_name a, Int_lit 0);
                         };
                       ];
                   },
                 Sblock [] ))
        else None)
      i.arrays
  in
  let dev_ofs a blk = fst (slice fl a blk) in
  let first = in_transfer target fl i.arrays ~dev_name ~dev_ofs (Int_lit 0) in
  let next_blk = S.add (Var blk_v) (Int_lit 1) in
  let loop_body =
    [
      Sif
        ( Binop (Lt, next_blk, Var nblk_v),
          [ in_transfer target fl i.arrays ~dev_name ~dev_ofs next_blk ],
          [] );
      Spragma (Offload_wait (Var blk_v), Sblock []);
      kernel target fl i.arrays ~dev_name ~shift:no_shift (Var blk_v);
    ]
    @ out_transfers target fl i.arrays ~dev_name ~dev_ofs (Var blk_v)
  in
  let frees =
    List.map
      (fun a -> Sexpr (Call ("mic_free", [ Var (dev_name a) ])))
      i.arrays
  in
  Sblock
    (decls @ upfront @ [ first ]
    @ [
        Sfor
          {
            index = blk_v;
            lo = Int_lit 0;
            hi = Var nblk_v;
            step = Int_lit 1;
            body = loop_body;
          };
      ]
    @ frees)

(* Two block-sized buffers per streamed input, one per output:
   Figure 5(c) *)
let generate_double (i : info) =
  let fl = i.region.loop in
  let target = i.spec.target in
  (* capacity of one block buffer for array [a] *)
  let cap a =
    S.add
      (S.mul (Int_lit a.coeff) (Var bsize_v))
      (Int_lit (a.max_off - a.min_off + max a.coeff 1))
  in
  let name_even a = Util.mic_name_n a.name 1 in
  let name_odd a = Util.mic_name_n a.name 2 in
  let name_out a = out_buffer_name a.name in
  let name_invariant a = Util.mic_name a.name in
  let decls =
    [
      Sdecl (Tint, nblk_v, Some (Int_lit i.nblocks));
      Sdecl
        ( Tint,
          bsize_v,
          Some
            (S.div
               (S.sub (S.add fl.hi (Var nblk_v)) (S.add fl.lo (Int_lit 1)))
               (Var nblk_v)) );
    ]
    @ List.concat_map
        (fun a ->
          let mk name size =
            Sdecl
              ( Tptr a.elem,
                name,
                Some (Cast (Tptr a.elem, Call ("mic_malloc", [ size ]))) )
          in
          if not (streamed a) then [ mk (name_invariant a) a.total ]
          else
            (if is_input a then [ mk (name_even a) (cap a); mk (name_odd a) (cap a) ]
             else [])
            @ if is_output a then [ mk (name_out a) (cap a) ] else [])
        i.arrays
  in
  let upfront =
    List.filter_map
      (fun a ->
        if (not (streamed a)) && is_input a then
          Some
            (Spragma
               ( Offload_transfer
                   {
                     empty_spec with
                     target;
                     ins =
                       [
                         {
                           arr = a.name;
                           start = Int_lit 0;
                           len = a.total;
                           into = Some (name_invariant a, Int_lit 0);
                         };
                       ];
                   },
                 Sblock [] ))
        else None)
      i.arrays
  in
  (* block-relative device offset is always 0 in double-buffered mode *)
  let dev_ofs0 _ _ = Int_lit 0 in
  (* shift applied to body indexes: host element index of block start *)
  let shift a blk =
    if streamed a then fst (slice fl a blk) else Int_lit 0
  in
  (* device buffer selection depends on block parity; [parity] chooses
     the buffer set for the *current* block *)
  let dev_name_for parity a =
    if not (streamed a) then name_invariant a
    else if is_input a then if parity = 0 then name_even a else name_odd a
    else name_out a
  in
  (* inputs of the *next* block go to the other buffer set *)
  let next_dev_name parity a =
    if not (streamed a) then name_invariant a
    else if is_input a then if parity = 0 then name_odd a else name_even a
    else name_out a
  in
  let next_blk = S.add (Var blk_v) (Int_lit 1) in
  let branch parity =
    [
      Sif
        ( Binop (Lt, next_blk, Var nblk_v),
          [
            in_transfer target fl i.arrays ~dev_name:(next_dev_name parity)
              ~dev_ofs:dev_ofs0 next_blk;
          ],
          [] );
      Spragma (Offload_wait (Var blk_v), Sblock []);
      kernel target fl i.arrays ~dev_name:(dev_name_for parity) ~shift
        (Var blk_v);
    ]
    @ out_transfers target fl i.arrays ~dev_name:(dev_name_for parity)
        ~dev_ofs:dev_ofs0 (Var blk_v)
  in
  let first =
    in_transfer target fl i.arrays ~dev_name:(dev_name_for 0)
      ~dev_ofs:dev_ofs0 (Int_lit 0)
  in
  let loop_body =
    [
      Sif
        ( Binop (Eq, Binop (Mod, Var blk_v, Int_lit 2), Int_lit 0),
          branch 0,
          branch 1 );
    ]
  in
  Sblock
    (decls @ upfront @ [ first ]
    @ [
        Sfor
          {
            index = blk_v;
            lo = Int_lit 0;
            hi = Var nblk_v;
            step = Int_lit 1;
            body = loop_body;
          };
      ])

let transform_with ~used ?(nblocks = 10) ?(memory = Full) prog region =
  let* info = analyze_with ~used ~nblocks prog region in
  let replacement =
    match memory with
    | Full -> generate_full info
    | Double_buffered -> generate_double info
  in
  match Util.replace_region prog region ~replacement with
  | Some prog' -> Ok (prog', info)
  | None -> Error No_offload_spec

(** Apply the streaming transformation to one region. *)
let transform ?nblocks ?memory prog region =
  Result.map fst
    (transform_with ~used:(clash_candidates prog) ?nblocks ?memory prog region)

(** Stream every offloaded region that passes the legality check.
    Returns the rewritten program and the analysis of each region it
    rewrote, in program order.  The names the rewrites would capture
    are those of the input: a region streamed earlier in the fold
    declares its names in its own block, so it does not stop a later
    region from streaming. *)
let transform_all ?(nblocks = 10) ?(memory = Full) prog =
  let used = clash_candidates prog in
  let regions = Analysis.Offload_regions.offloaded prog in
  let prog, infos =
    List.fold_left
      (fun (prog, infos) region ->
        match transform_with ~used ~nblocks ~memory prog region with
        | Ok (prog', info) -> (prog', info :: infos)
        | Error _ -> (prog, infos))
      (prog, []) regions
  in
  (prog, List.rev infos)

(** {1 Re-blocking}

    A streamed region reads its block count from one place, the
    [int nblk__ = N;] that opens its block; everything else refers to
    [nblk__] by name.  Because a program that already uses [nblk__] is
    never streamed, every such declaration in a streamed program is one
    the rewrite emitted. *)
let reblock ~nblocks prog =
  let set = function
    | Sdecl (Tint, v, Some (Int_lit _)) when String.equal v nblk_v ->
        Sdecl (Tint, v, Some (Int_lit nblocks))
    | s -> s
  in
  map_funcs (fun f -> { f with body = map_block set f.body }) prog

(** {1 Re-tracing}

    The lowerings at different block counts differ only in how each
    streamed region cuts its iteration space, so one run at
    {!retrace_nblocks} blocks, with {!Minic.Interp.run_profiled}'s
    per-event profile, fixes the event trace of every other count.
    Take one executed instance of a streamed region, with loop bounds
    [lo], [hi] and [N = hi - lo >= 1] iterations, at [n] blocks:

    - the block size is [bs = (N + n - 1) / n], as the rewrite computes
      [bsize__]; block [b] runs iterations
      [[lo + b*bs, min(hi, lo + (b+1)*bs))];
    - block [b]'s kernel does [c0 + sum w(i)] work over its iterations,
      where [w(i)] is iteration [i]'s fuel and [c0] the kernel's
      pragmas, loop entry and final bound check: re-blocking leaves the
      kernel's code alone, so neither depends on [n];
    - a streamed array with coefficient [c] and offsets
      [min_off <= max_off] moves [max(0, min(E, x) - min(E, y))] cells
      in block [b], where [y = max(0, c*(lo + b*bs) + min_off)],
      [x = c*min(hi, lo + (b+1)*bs) + max_off] and [E] is
      [min(T, c*hi + max_off)] for the clause total [T]: the one
      runtime value the slices need besides [lo] and [hi];
    - the events are [T(inputs of block 0, signal 0)], then per block
      [b]: [T(inputs of block b+1, signal b+1)] if [b+1 < n], [W b],
      [K(work of block b)], and one [T(d2h)] per streamed output whose
      slice is not empty;
    - every block but the last does the same host work [beta] besides
      its kernel (the last skips the prefetch), so the run's fuel is
      [fuel(4) + (n - 4) * (beta + c0)] summed over the instances.

    Every event outside the instances is the same at every count. *)

let retrace_nblocks = 4

type refusal =
  | Run_failed of string
  | Ambiguous_region of string list
  | Unrecognised of string
  | Empty_iterations
  | Unobservable_end of string
  | Fuel_exhausted of int

let refusal_name = function
  | Run_failed _ -> "run_failed"
  | Ambiguous_region _ -> "ambiguous"
  | Unrecognised _ -> "unrecognised"
  | Empty_iterations -> "empty"
  | Unobservable_end _ -> "unobservable_end"
  | Fuel_exhausted _ -> "fuel"

let pp_refusal fmt = function
  | Run_failed e ->
      Format.fprintf fmt "the run at %d blocks failed: %s" retrace_nblocks e
  | Ambiguous_region names ->
      Format.fprintf fmt
        "two streamed regions stream the inputs %s, sliced differently"
        (String.concat ", " names)
  | Unrecognised what ->
      Format.fprintf fmt "a streamed instance does not follow the pattern: %s"
        what
  | Empty_iterations ->
      Format.fprintf fmt "a streamed instance has no iterations"
  | Unobservable_end a ->
      Format.fprintf fmt "the end of array %s's slices cannot be observed" a
  | Fuel_exhausted n ->
      Format.fprintf fmt "the run at %d blocks would run out of fuel" n

type retraced = {
  rt_nblocks : int;
  rt_events : Minic.Interp.event list;
  rt_work : int;
}

exception Refused of refusal

let unrecognised fmt =
  Printf.ksprintf (fun what -> raise (Refused (Unrecognised what))) fmt

(* a region's streamed arrays, in the clause order of its transfers *)
type shape = {
  inputs : arr_info list;
  outputs : arr_info list;
  input_names : string list;
}

let shape_of (i : info) =
  let inputs = List.filter (fun a -> streamed a && is_input a) i.arrays in
  {
    inputs;
    outputs = List.filter (fun a -> streamed a && is_output a) i.arrays;
    input_names = List.map (fun a -> a.name) inputs;
  }

(* two regions slice alike when they stream the same arrays, with the
   same coefficients and offsets: an instance of either derives the
   same way *)
let same_slicing a b =
  String.equal a.name b.name && a.coeff = b.coeff && a.min_off = b.min_off
  && a.max_off = b.max_off

let same_shape s t =
  List.equal same_slicing s.inputs t.inputs
  && List.equal same_slicing s.outputs t.outputs

(* the device buffers an output's slice is copied back from, in either
   layout and at either parity *)
let device_names a =
  [
    Util.mic_name a.name;
    Util.mic_name_n a.name 1;
    Util.mic_name_n a.name 2;
    out_buffer_name a.name;
  ]

(* does the loop assign its own index, or take its address?  Its blocks
   would then not run the iterations their bounds name *)
let writes_index (fl : for_loop) =
  let is_index = function Var v -> String.equal v fl.index | _ -> false in
  let addresses_index acc e =
    acc || match e with Addr e -> is_index e | _ -> false
  in
  fold_stmts
    (fun acc s ->
      acc
      || (match s with Sassign (lv, _) -> is_index lv | _ -> false)
      || List.fold_left (fold_expr addresses_index) false (stmt_exprs s))
    false fl.body

(* One executed instance, as the profiled run saw it *)
type instance = {
  shape : shape;
  lo : int;
  iterations : int;
  prefix : int array;  (** [prefix.(k)]: fuel of the first [k] iterations *)
  c0 : int;
  beta : int;
  input_ends : int list;  (** [E] per input *)
  output_ends : int list;  (** [E] per output *)
}

let block_size ~iterations n = (iterations + n - 1) / n

(* where array [a]'s slice in block [b] starts, and where it would end
   were the clause long enough: [(y, x)] *)
let slice_bounds a ~lo ~hi ~bs b =
  ( max 0 ((a.coeff * (lo + (b * bs))) + a.min_off),
    (a.coeff * min hi (lo + ((b + 1) * bs))) + a.max_off )

(* cells array [a] moves in block [b], for slices ending at [e] *)
let slice_cells a ~lo ~hi ~bs e b =
  let y, x = slice_bounds a ~lo ~hi ~bs b in
  max 0 (min e x - min e y)

(* [E] for array [a], from the cells each of the profiled blocks moved:
   a block that moved cells ends its slice at [min(E, x)], one that
   moved none starts it at or past [E].  [None] when that leaves [E]
   open and some count's slices would depend on it. *)
let slice_end a ~lo ~hi ~bs cells =
  let e_lo = ref min_int and e_hi = ref ((a.coeff * hi) + a.max_off) in
  Array.iteri
    (fun b moved ->
      let y, x = slice_bounds a ~lo ~hi ~bs b in
      if moved > 0 then begin
        let stop = y + moved in
        if stop < x then begin
          e_lo := max !e_lo stop;
          e_hi := min !e_hi stop
        end
        else if stop = x then e_lo := max !e_lo x
        else e_lo := max_int
      end
      else if x > y then e_hi := min !e_hi y)
    cells;
  if !e_lo > !e_hi then None
  else if !e_lo = !e_hi then Some !e_lo
  else if !e_hi <= max 0 ((a.coeff * lo) + a.min_off) then
    (* every slice of every count starts at or past [E]: all empty *)
    Some !e_hi
  else None

(* The instance whose signal-0 transfer is event [i]: returns it and
   the index of the first event after it. *)
let observe shape (evs : Minic.Interp.event array)
    (dets : Minic.Interp.detail array) i =
  let open Minic.Interp in
  let nb = retrace_nblocks in
  let pos = ref i in
  let next what =
    if !pos >= Array.length evs then unrecognised "the trace ends in %s" what;
    let k = !pos in
    incr pos;
    (evs.(k), dets.(k))
  in
  let in_cells = Array.make_matrix (List.length shape.inputs) nb 0 in
  let out_cells = Array.make_matrix (List.length shape.outputs) nb 0 in
  (* per block: kernel work, fuel when it was appended, and its loop *)
  let work = Array.make nb 0 and fuel_at = Array.make nb 0 in
  let loop = Array.make nb { lp_first = 0; lp_iterations = [||] } in
  let take_inputs b =
    match next "a prefetch" with
    | Ev_transfer { d2h_cells = 0; signal = Some s; _ }, d
      when s = b && List.map fst d.d_sections = shape.input_names ->
        List.iteri (fun k (_, cells) -> in_cells.(k).(b) <- cells) d.d_sections
    | _ -> unrecognised "block %d's inputs" b
  in
  take_inputs 0;
  for b = 0 to nb - 1 do
    if b + 1 < nb then take_inputs (b + 1);
    (match next "a wait" with
    | Ev_wait w, _ when w = b -> ()
    | _ -> unrecognised "block %d's wait" b);
    (match next "a kernel" with
    | Ev_kernel { work = w; wait = None }, { d_loop = Some l; d_fuel; _ } ->
        work.(b) <- w;
        fuel_at.(b) <- d_fuel;
        loop.(b) <- l
    | _ -> unrecognised "block %d's kernel" b);
    List.iteri
      (fun k a ->
        if !pos < Array.length evs then
          match (evs.(!pos), dets.(!pos)) with
          | ( Ev_transfer { h2d_cells = 0; d2h_cells; signal = None },
              { d_sections = [ (buffer, cells) ]; _ } )
            when cells = d2h_cells && List.mem buffer (device_names a) ->
              out_cells.(k).(b) <- cells;
              incr pos
          | _ -> ())
      shape.outputs
  done;
  let ws = Array.concat (Array.to_list (Array.map (fun l -> l.lp_iterations) loop)) in
  let iterations = Array.length ws in
  if iterations = 0 then raise (Refused Empty_iterations);
  let lo = loop.(0).lp_first in
  let hi = lo + iterations in
  let bs = block_size ~iterations nb in
  let prefix = Array.make (iterations + 1) 0 in
  Array.iteri (fun k w -> prefix.(k + 1) <- prefix.(k) + w) ws;
  let c0s =
    List.init nb (fun b ->
        let l = loop.(b) and start = lo + (b * bs) in
        if
          l.lp_first <> start
          || Array.length l.lp_iterations <> max 0 (min hi (start + bs) - start)
        then unrecognised "block %d runs other iterations than its bounds name" b;
        work.(b) - Array.fold_left ( + ) 0 l.lp_iterations)
  in
  let c0 = List.hd c0s in
  if List.exists (( <> ) c0) c0s then
    unrecognised "the kernel's fixed work differs between blocks";
  (* the host work between two kernels, less the second: blocks 1 and 2
     both prefetch, and their parities differ *)
  let host b = fuel_at.(b) - fuel_at.(b - 1) - work.(b) in
  let beta = host 1 in
  if host 2 <> beta then
    unrecognised "the host work differs between blocks";
  let ends arrays cells =
    List.mapi
      (fun k a ->
        match slice_end a ~lo ~hi ~bs cells.(k) with
        | Some e -> e
        | None -> raise (Refused (Unobservable_end a.name)))
      arrays
  in
  ( {
      shape;
      lo;
      iterations;
      prefix;
      c0;
      beta;
      input_ends = ends shape.inputs in_cells;
      output_ends = ends shape.outputs out_cells;
    },
    !pos )

(* the events of [inst] at [n] blocks, in front of [tail] *)
let instance_events inst n tail =
  let open Minic.Interp in
  let bs = block_size ~iterations:inst.iterations n in
  let lo = inst.lo and hi = inst.lo + inst.iterations in
  let cells a e b = slice_cells a ~lo ~hi ~bs e b in
  let inputs b =
    List.fold_left2
      (fun acc a e -> acc + cells a e b)
      0 inst.shape.inputs inst.input_ends
  in
  let work b =
    let upto k = inst.prefix.(min inst.iterations k) in
    inst.c0 + upto ((b + 1) * bs) - upto (b * bs)
  in
  (* built back to front *)
  let rec block b acc =
    if b < 0 then
      Ev_transfer { h2d_cells = inputs 0; d2h_cells = 0; signal = Some 0 }
      :: acc
    else
      let acc =
        List.fold_right2
          (fun a e acc ->
            match cells a e b with
            | 0 -> acc
            | d2h_cells ->
                Ev_transfer { h2d_cells = 0; d2h_cells; signal = None } :: acc)
          inst.shape.outputs inst.output_ends acc
      in
      let acc = Ev_wait b :: Ev_kernel { work = work b; wait = None } :: acc in
      let acc =
        if b + 1 < n then
          Ev_transfer
            { h2d_cells = inputs (b + 1); d2h_cells = 0; signal = Some (b + 1) }
          :: acc
        else acc
      in
      block (b - 1) acc
  in
  block (n - 1) tail

type segment = Verbatim of Minic.Interp.event list | Instance of instance

(* the trace at [n] blocks: verbatim stretches around each instance's
   [n]-block events; the stretch after the last instance is shared *)
let trace_at segments n =
  List.fold_right
    (fun seg acc ->
      match seg with
      | Verbatim evs -> ( match acc with [] -> evs | _ -> evs @ acc)
      | Instance inst -> instance_events inst n acc)
    segments []

(* The distinct shapes of the regions, after the refusals the regions
   alone decide: an instance is told by its inputs, so two shapes with
   the same inputs but other slicing are ambiguous. *)
let shapes_of infos =
  List.iter
    (fun (i : info) ->
      if writes_index i.region.loop then
        unrecognised "the loop over %s writes its index" i.region.loop.index)
    infos;
  List.fold_left
    (fun shapes (i : info) ->
      let s = shape_of i in
      if List.exists (same_shape s) shapes then shapes
      else if List.exists (fun t -> t.input_names = s.input_names) shapes then
        raise (Refused (Ambiguous_region s.input_names))
      else s :: shapes)
    [] infos

let derive_exn ~fuel infos (outcome : Minic.Interp.outcome) details ~nblocks =
  let shapes = shapes_of infos in
  let evs = Array.of_list outcome.events and dets = Array.of_list details in
  if Array.length dets <> Array.length evs then
    invalid_arg "Streaming.derive: one detail per event";
  let verbatim start stop =
    Verbatim (Array.to_list (Array.sub evs start (stop - start)))
  in
  (* split the trace at each instance's signal-0 transfer *)
  let rec split start i acc =
    if i >= Array.length evs then List.rev (verbatim start i :: acc)
    else
      match evs.(i) with
      | Minic.Interp.Ev_transfer { signal = Some 0; _ } -> (
          let names = List.map fst dets.(i).Minic.Interp.d_sections in
          match List.find_opt (fun s -> s.input_names = names) shapes with
          | Some shape ->
              let inst, stop = observe shape evs dets i in
              split stop stop (Instance inst :: verbatim start i :: acc)
          | None -> split start (i + 1) acc)
      | _ -> split start (i + 1) acc
  in
  let segments = split 0 0 [] in
  let per_block =
    List.fold_left
      (fun acc -> function
        | Instance i -> acc + i.beta + i.c0 | Verbatim _ -> acc)
      0 segments
  in
  let work n = outcome.work + ((n - retrace_nblocks) * per_block) in
  (* self-check: the model reproduces the profiled run *)
  if trace_at segments retrace_nblocks <> outcome.events then
    unrecognised "the %d-block events are not reproduced" retrace_nblocks;
  List.iter
    (fun n ->
      if n < 1 then invalid_arg "Streaming.derive: a count below 1";
      if work n >= fuel then raise (Refused (Fuel_exhausted n)))
    nblocks;
  List.map
    (fun n ->
      {
        rt_nblocks = n;
        rt_events =
          (if n = retrace_nblocks then outcome.events else trace_at segments n);
        rt_work = work n;
      })
    nblocks

let derive ?(fuel = Minic.Interp.default_fuel) infos outcome details ~nblocks =
  match derive_exn ~fuel infos outcome details ~nblocks with
  | traces -> Ok traces
  | exception Refused r -> Error r

let retrace ?(fuel = Minic.Interp.default_fuel) infos lowered ~nblocks =
  match
    Minic.Compile_eval.run_profiled ~fuel
      (reblock ~nblocks:retrace_nblocks lowered)
  with
  | Error e -> Error (Run_failed e)
  | Ok (outcome, details) -> derive ~fuel infos outcome details ~nblocks
