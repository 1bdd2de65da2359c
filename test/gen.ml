(** QCheck generators for MiniC fragments.

    Full well-typed program generation is not attempted; instead we
    generate (a) arbitrary well-formed {e expressions} over a fixed
    variable environment for print/parse round-trips, and (b) random
    {e instances} of parameterized program templates (random sizes,
    block counts, seeds) for semantics-preservation properties. *)

open Minic.Ast

let small_int = QCheck.Gen.int_range 0 999

let var_name = QCheck.Gen.oneofl [ "a"; "b"; "n"; "x"; "y"; "idx" ]

let binop_gen =
  QCheck.Gen.oneofl
    [ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]

(* int-flavoured expressions (no floats: avoids printing round-trip
   pitfalls orthogonal to structure) *)
let expr_gen : expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Int_lit i) small_int;
                map (fun v -> Var v) var_name;
                map (fun b -> Bool_lit b) bool;
              ]
          else
            frequency
              [
                (2, map (fun i -> Int_lit i) small_int);
                (2, map (fun v -> Var v) var_name);
                ( 4,
                  map3
                    (fun op a b -> Binop (op, a, b))
                    binop_gen (self (n / 2)) (self (n / 2)) );
                (1, map (fun e -> Unop (Neg, e)) (self (n - 1)));
                (1, map (fun e -> Unop (Not, e)) (self (n - 1)));
                ( 2,
                  map2 (fun a i -> Index (Var a, i)) var_name (self (n - 1))
                );
                ( 1,
                  map2
                    (fun f args -> Call (f, args))
                    (oneofl [ "imin"; "imax"; "abs" ])
                    (list_size (return 2) (self (n / 2))) );
              ])
        (min n 8))

let arb_expr = QCheck.make ~print:Minic.Pretty.expr_to_string expr_gen

(* affine pairs (coeff, offset) for the affine-recognition property *)
let arb_affine_parts =
  QCheck.(pair (int_range (-9) 9) (int_range (-99) 99))

(** A blackscholes-like streamable program instance: [n] elements,
    deterministic data from [seed]. *)
let streamable_program ~n ~seed =
  Printf.sprintf
    {|
int main(void) {
  int n = %d;
  float a[%d];
  float b[%d];
  float out[%d];
  for (i = 0; i < n; i++) {
    a[i] = (float)((i * %d + 3) %% 17) / 2.0;
    b[i] = (float)((i + %d) %% 11) + 1.0;
  }
  #pragma offload target(mic:0) in(a[0:n], b[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    out[i] = a[i] * b[i] + sqrt(b[i]);
  }
  for (i = 0; i < n; i++) {
    print_float(out[i]);
  }
  return 0;
}
|}
    n n n n
    ((seed mod 7) + 1)
    (seed mod 13)

(** Two streamable offloaded loops at the top level of [main], which
    no pass merges: streaming rewrites both, each in its own block. *)
let two_region_program ~n ~seed =
  Printf.sprintf
    {|
int main(void) {
  int n = %d;
  float a[%d];
  float b[%d];
  float c[%d];
  float d[%d];
  for (i = 0; i < n; i++) {
    a[i] = (float)((i * %d + 1) %% 13);
    c[i] = (float)(i + %d);
  }
  #pragma offload target(mic:0) in(a[0:n]) out(b[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    b[i] = a[i] * 2.0 + 1.0;
  }
  #pragma offload target(mic:0) in(c[0:n]) out(d[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    d[i] = c[i] * c[i];
  }
  for (i = 0; i < n; i++) {
    print_float(b[i] + d[i]);
  }
  return 0;
}
|}
    n n n n n
    ((seed mod 5) + 2)
    (seed mod 9)

(** A gather program instance (regularization target). *)
let gather_program ~n ~m ~seed =
  Printf.sprintf
    {|
int main(void) {
  int n = %d;
  float a[%d];
  int b[%d];
  float out[%d];
  for (i = 0; i < %d; i++) {
    a[i] = (float)((i * 3 + %d) %% 23);
  }
  for (i = 0; i < n; i++) {
    b[i] = (i * %d + 1) %% %d;
  }
  #pragma offload target(mic:0) in(a[0:%d], b[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    out[i] = a[b[i]] * 2.0 + 1.0;
  }
  for (i = 0; i < n; i++) {
    print_float(out[i]);
  }
  return 0;
}
|}
    n m n n m (seed mod 9)
    ((seed mod 5) + 1)
    m m

(** A stencil program with constant halo offsets (tests slice halos). *)
let stencil_program ~n ~seed =
  Printf.sprintf
    {|
int main(void) {
  int n = %d;
  float a[%d];
  float out[%d];
  for (i = 0; i < n; i++) {
    a[i] = (float)((i + %d) %% 19) / 3.0;
  }
  #pragma offload target(mic:0) in(a[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    float left = 0.0;
    float right = 0.0;
    if (i > 0) {
      left = a[i - 1];
    }
    if (i < n - 1) {
      right = a[i + 1];
    }
    out[i] = a[i] + 0.5 * (left + right);
  }
  for (i = 0; i < n; i++) {
    print_float(out[i]);
  }
  return 0;
}
|}
    n n n (seed mod 7)

(** A streamable program whose output array is inout (read-modify-
    write), exercising the two-directional slices. *)
let inout_program ~n ~seed =
  Printf.sprintf
    {|
int main(void) {
  int n = %d;
  float a[%d];
  float acc[%d];
  for (i = 0; i < n; i++) {
    a[i] = (float)((i * %d + 1) %% 13) / 2.0;
    acc[i] = (float)(i %% 7);
  }
  #pragma offload target(mic:0) in(a[0:n]) inout(acc[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    acc[i] = acc[i] * 0.5 + a[i];
  }
  for (i = 0; i < n; i++) {
    print_float(acc[i]);
  }
  return 0;
}
|}
    n n n
    ((seed mod 5) + 1)

let arb_size_seed =
  QCheck.(pair (int_range 3 40) (int_range 0 1000))

let arb_size_seed_blocks =
  QCheck.(triple (int_range 3 40) (int_range 0 1000) (int_range 1 8))

(** {1 Multi-array random streamable programs}

    Random combinations of input arrays with random strides and
    constant offsets (halos), an optional invariant lookup table, and
    an output — the general shape the streaming slice computation must
    get right. *)

type in_array = { a_name : string; stride : int; offsets : int list }

let multi_program ~n ~(arrays : in_array list) ~with_lut ~seed =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "int main(void) {\n";
  add "  int n = %d;\n" n;
  let size (a : in_array) =
    (a.stride * (n - 1)) + List.fold_left max 0 a.offsets + 1
  in
  List.iter
    (fun a -> add "  float %s[%d];\n" a.a_name (size a))
    arrays;
  if with_lut then add "  float lut[4];\n";
  add "  float out[%d];\n" n;
  List.iter
    (fun a ->
      add "  for (i = 0; i < %d; i++) { %s[i] = (float)((i * %d + %d) %% 29); }\n"
        (size a) a.a_name
        ((seed mod 5) + 2)
        (seed mod 11))
    arrays;
  if with_lut then
    add "  for (i = 0; i < 4; i++) { lut[i] = (float)i + 0.5; }\n";
  let clauses =
    List.map (fun a -> Printf.sprintf "%s[0:%d]" a.a_name (size a)) arrays
    @ (if with_lut then [ "lut[0:4]" ] else [])
  in
  add "  #pragma offload target(mic:0) in(%s) out(out[0:n])\n"
    (String.concat ", " clauses);
  add "  #pragma omp parallel for\n";
  add "  for (i = 0; i < n; i++) {\n";
  let terms =
    List.concat_map
      (fun a ->
        List.map
          (fun off ->
            if a.stride = 1 && off = 0 then
              Printf.sprintf "%s[i]" a.a_name
            else if a.stride = 1 then
              Printf.sprintf "%s[i + %d]" a.a_name off
            else if off = 0 then
              Printf.sprintf "%s[%d * i]" a.a_name a.stride
            else Printf.sprintf "%s[%d * i + %d]" a.a_name a.stride off)
          a.offsets)
      arrays
    @ if with_lut then [ "lut[2]" ] else []
  in
  add "    out[i] = %s;\n" (String.concat " + " terms);
  add "  }\n";
  add "  for (i = 0; i < n; i++) { print_float(out[i]); }\n";
  add "  return 0;\n}\n";
  Buffer.contents buf

let in_array_gen idx =
  let open QCheck.Gen in
  let* stride = int_range 1 3 in
  let* noffs = int_range 1 3 in
  let* offsets = list_size (return noffs) (int_range 0 3) in
  return
    {
      a_name = Printf.sprintf "arr%d" idx;
      stride;
      offsets = List.sort_uniq compare offsets;
    }

let multi_instance_gen =
  let open QCheck.Gen in
  let* n = int_range 4 30 in
  let* narrays = int_range 1 3 in
  let* arrays =
    List.fold_right
      (fun idx acc ->
        let* a = in_array_gen idx in
        let* rest = acc in
        return (a :: rest))
      (List.init narrays Fun.id)
      (return [])
  in
  let* with_lut = bool in
  let* seed = int_range 0 999 in
  let* blocks = int_range 1 6 in
  return (multi_program ~n ~arrays ~with_lut ~seed, blocks)

let arb_multi_instance =
  QCheck.make ~print:(fun (src, b) -> Printf.sprintf "blocks=%d\n%s" b src)
    multi_instance_gen

(** {1 Offload plan generators}

    Random (shape, strategy) pairs covering every execution strategy —
    the input space of the observability conservation properties:
    whatever plan is generated, the bytes its schedule's spans record
    must match what the plan declares. *)

let shape_gen =
  let open QCheck.Gen in
  let* iters = int_range 1_000 1_000_000 in
  let* bytes_in = map float_of_int (int_range 1_000 10_000_000) in
  let* bytes_out = map float_of_int (int_range 1_000 10_000_000) in
  let* invariant_bytes = map float_of_int (int_range 0 1_000_000) in
  let* outer_repeats = int_range 1 5 in
  let* inner_offloads = int_range 1 4 in
  let* host_glue_s = float_range 0. 1e-3 in
  let* with_shared = bool in
  let* shared_bytes = int_range 4096 (1 lsl 24) in
  let* shared_allocs = int_range 1 64 in
  let* myo_touched_frac = float_range 0.05 1.0 in
  let* myo_rounds = int_range 1 4 in
  return
    {
      Runtime.Plan.default_shape with
      iters;
      bytes_in;
      bytes_out;
      invariant_bytes;
      outer_repeats;
      inner_offloads;
      host_glue_s;
      shared =
        (if with_shared then
           Some
             {
               Runtime.Plan.default_shared with
               shared_bytes;
               shared_allocs;
               objects_touched = iters;
               myo_touched_frac;
               myo_rounds;
             }
         else None);
    }

let strategy_gen =
  let open QCheck.Gen in
  oneof
    [
      return Runtime.Plan.Host_parallel;
      return Runtime.Plan.Naive_offload;
      (let* nblocks = int_range 1 40 in
       let* double_buffered = bool in
       let* persistent = bool in
       let* repack =
         oneof
           [
             return None;
             (let* pipelined = bool in
              return
                (Some { Runtime.Plan.repack_s_per_block = 1e-4; pipelined }));
           ]
       in
       return
         (Runtime.Plan.streamed ~nblocks ~double_buffered ~persistent ?repack
            ()));
      (let* nblocks = int_range 1 40 in
       let* streamed = bool in
       return (Runtime.Plan.merged ~streamed ~nblocks ()));
      return Runtime.Plan.Shared_myo;
      (let* mb = int_range 1 64 in
       return (Runtime.Plan.Shared_segbuf { seg_bytes = mb * 1024 * 1024 }));
    ]

let arb_plan =
  QCheck.make
    ~print:(fun ((s : Runtime.Plan.shape), strat) ->
      Printf.sprintf
        "%s iters=%d in=%g out=%g inv=%g outer=%d inner=%d shared=%s"
        (Runtime.Plan.strategy_name strat)
        s.Runtime.Plan.iters s.Runtime.Plan.bytes_in s.Runtime.Plan.bytes_out
        s.Runtime.Plan.invariant_bytes s.Runtime.Plan.outer_repeats
        s.Runtime.Plan.inner_offloads
        (match s.Runtime.Plan.shared with
        | None -> "none"
        | Some sh ->
            Printf.sprintf "%dB/%d rounds" sh.Runtime.Plan.shared_bytes
              sh.Runtime.Plan.myo_rounds))
    QCheck.Gen.(pair shape_gen strategy_gen)
