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
  | Some prog' -> Ok prog'
  | None -> Error No_offload_spec

(** Apply the streaming transformation to one region. *)
let transform ?nblocks ?memory prog region =
  transform_with ~used:(clash_candidates prog) ?nblocks ?memory prog region

(** Stream every offloaded region that passes the legality check.
    Returns the rewritten program and the transformed region count.
    The names the rewrites would capture are those of the input: a
    region streamed earlier in the fold declares its names in its own
    block, so it does not stop a later region from streaming. *)
let transform_all ?(nblocks = 10) ?(memory = Full) prog =
  let used = clash_candidates prog in
  let regions = Analysis.Offload_regions.offloaded prog in
  List.fold_left
    (fun (prog, n) region ->
      match transform_with ~used ~nblocks ~memory prog region with
      | Ok prog' -> (prog', n + 1)
      | Error _ -> (prog, n))
    (prog, 0) regions

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
