(** Whole-program MiniC generators for differential transform
    validation.

    Each {!pattern} is a parameterized family of small, well-typed,
    terminating programs built around one access-pattern idiom from the
    paper — dense streaming, stencil halos, sparse strides, gathers
    [A[B[i]]], AoS field access, pointer-chasing structures, offload
    chains — chosen so every transform's [applicable] predicate is
    exercised both positively and negatively (see
    {!Check.expected_applicable} for the truth table).

    Generation is deterministic: [generate pat ~seed] always returns
    the same source text, so any failure reproduces from its seed
    alone.  Programs are emitted as {e source strings} rather than ASTs
    on purpose — every generated instance also exercises the
    lexer/parser/printer front line. *)

type pattern =
  | Dense  (** unit-stride multi-array kernel; the streaming bread-and-butter *)
  | Stencil  (** dense with constant-offset halos under boundary guards *)
  | Sparse_stride  (** [a[k*i + c]] covering few residues: reorder target *)
  | Step_loop  (** non-unit loop step: streaming must refuse *)
  | Gather  (** [a[b[i]]] indirection: reorder target *)
  | Guarded_gather  (** gather under a data-dependent branch: reorder must refuse *)
  | Aos  (** array-of-structs field access: SoA target *)
  | Chain  (** pointer-linked structs: shared-memory target *)
  | Multi_offload  (** offload chain in a repeat loop: merge target *)
  | Host_scalar  (** offload chain with a host scalar write: merge must refuse *)
  | Plain_loop  (** no pragmas at all: every transform is a no-op *)
  | Inout  (** read-modify-write output section *)

let all_patterns =
  [
    Dense; Stencil; Sparse_stride; Step_loop; Gather; Guarded_gather; Aos;
    Chain; Multi_offload; Host_scalar; Plain_loop; Inout;
  ]

let pattern_name = function
  | Dense -> "dense"
  | Stencil -> "stencil"
  | Sparse_stride -> "sparse-stride"
  | Step_loop -> "step-loop"
  | Gather -> "gather"
  | Guarded_gather -> "guarded-gather"
  | Aos -> "aos"
  | Chain -> "chain"
  | Multi_offload -> "multi-offload"
  | Host_scalar -> "host-scalar"
  | Plain_loop -> "plain-loop"
  | Inout -> "inout"

(* Every pattern folds its own tag into the random state so the same
   seed yields unrelated instances across patterns. *)
let rng pattern seed =
  let tag =
    let rec idx i = function
      | [] -> 0
      | p :: _ when p = pattern -> i
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 all_patterns
  in
  Random.State.make [| 0x434f4d50; seed; tag |]

let irange st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Deterministic "random" data initialization: cheap integer hash of
   the index, cast to float where needed.  Kept affine-free so the
   data never accidentally matches the loop's access pattern. *)
let init_f st name size =
  Printf.sprintf
    "  for (i = 0; i < %d; i++) { %s[i] = (float)((i * %d + %d) %% %d) / %d.0; }\n"
    size name (irange st 2 9) (irange st 0 12) (irange st 11 29) (irange st 2 4)

let init_i st name size modulus =
  Printf.sprintf "  for (i = 0; i < %d; i++) { %s[i] = (i * %d + %d) %% %d; }\n"
    size name (irange st 1 7) (irange st 0 5) modulus

let print_tail name =
  Printf.sprintf
    "  for (i = 0; i < n; i++) { print_float(%s[i]); }\n  return 0;\n}\n" name

let header ?(globals = "") () = globals ^ "int main(void) {\n"

let dense st =
  let n = irange st 4 20 in
  let narr = irange st 1 3 in
  let buf = Buffer.create 512 in
  let globals = Buffer.create 64 in
  let gout = Random.State.bool st in
  if gout then Buffer.add_string globals (Printf.sprintf "float out[%d];\n" n);
  Buffer.add_string buf (header ~globals:(Buffer.contents globals) ());
  Buffer.add_string buf (Printf.sprintf "  int n = %d;\n" n);
  let names = List.init narr (Printf.sprintf "a%d") in
  let halo = irange st 0 2 in
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "  float %s[%d];\n" a (n + halo)))
    names;
  if not gout then Buffer.add_string buf (Printf.sprintf "  float out[%d];\n" n);
  List.iter (fun a -> Buffer.add_string buf (init_f st a (n + halo))) names;
  let clauses =
    List.map (fun a -> Printf.sprintf "%s[0:%d]" a (n + halo)) names
  in
  Buffer.add_string buf
    (Printf.sprintf "  #pragma offload target(mic:0) in(%s) out(out[0:n])\n"
       (String.concat ", " clauses));
  Buffer.add_string buf "  #pragma omp parallel for\n";
  Buffer.add_string buf "  for (i = 0; i < n; i++) {\n";
  let terms =
    List.map
      (fun a ->
        if halo = 0 then Printf.sprintf "%s[i]" a
        else Printf.sprintf "%s[i + %d]" a (irange st 0 halo))
      names
  in
  Buffer.add_string buf
    (Printf.sprintf "    out[i] = %s + %d.0;\n" (String.concat " * " terms)
       (irange st 0 3));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf (print_tail "out");
  Buffer.contents buf

let stencil st =
  let n = irange st 5 20 in
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  float a[%d];
  float out[%d];
%s  #pragma offload target(mic:0) in(a[0:n]) out(out[0:n])
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
    out[i] = a[i] + %d.0 * (left + right);
  }
%s|}
    n n n (init_f st "a" n) (irange st 1 4) (print_tail "out")

let sparse_stride st =
  let n = irange st 4 14 in
  let k = irange st 2 4 in
  (* strictly fewer residues than the stride => sparse, reorderable *)
  let noffs = irange st 1 (k - 1) in
  let offs =
    List.sort_uniq compare
      (List.init noffs (fun _ -> Random.State.int st k))
  in
  let size = (k * (n - 1)) + k in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header ());
  Buffer.add_string buf (Printf.sprintf "  int n = %d;\n" n);
  Buffer.add_string buf (Printf.sprintf "  float a[%d];\n  float out[%d];\n" size n);
  Buffer.add_string buf (init_f st "a" size);
  Buffer.add_string buf
    (Printf.sprintf "  #pragma offload target(mic:0) in(a[0:%d]) out(out[0:n])\n" size);
  Buffer.add_string buf "  #pragma omp parallel for\n";
  Buffer.add_string buf "  for (i = 0; i < n; i++) {\n";
  let terms =
    List.map
      (fun o ->
        if o = 0 then Printf.sprintf "a[%d * i]" k
        else Printf.sprintf "a[%d * i + %d]" k o)
      offs
  in
  Buffer.add_string buf
    (Printf.sprintf "    out[i] = %s;\n" (String.concat " + " terms));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf (print_tail "out");
  Buffer.contents buf

let step_loop st =
  let n = 2 * irange st 3 10 in
  let step = 2 in
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  float a[%d];
  float out[%d];
%s  for (i = 0; i < n; i++) { out[i] = 0.0; }
  #pragma offload target(mic:0) in(a[0:n]) inout(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i += %d) {
    out[i] = a[i] * %d.0;
  }
%s|}
    n n n (init_f st "a" n) step (irange st 2 5) (print_tail "out")

let gather st =
  let n = irange st 4 18 in
  let m = irange st 4 18 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header ());
  Buffer.add_string buf (Printf.sprintf "  int n = %d;\n" n);
  Buffer.add_string buf
    (Printf.sprintf "  float a[%d];\n  int b[%d];\n  float out[%d];\n" m n n);
  Buffer.add_string buf (init_f st "a" m);
  Buffer.add_string buf (init_i st "b" n m);
  Buffer.add_string buf
    (Printf.sprintf
       "  #pragma offload target(mic:0) in(a[0:%d], b[0:n]) out(out[0:n])\n" m);
  Buffer.add_string buf "  #pragma omp parallel for\n";
  Buffer.add_string buf "  for (i = 0; i < n; i++) {\n";
  Buffer.add_string buf
    (Printf.sprintf "    out[i] = a[b[i]] * %d.0 + %d.0;\n" (irange st 1 4)
       (irange st 0 3));
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf (print_tail "out");
  Buffer.contents buf

let guarded_gather st =
  let n = irange st 4 18 in
  let m = irange st 4 18 in
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  float a[%d];
  int b[%d];
  float out[%d];
%s%s  #pragma offload target(mic:0) in(a[0:%d], b[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    if (b[i] < %d) {
      out[i] = a[b[i]] * 2.0;
    } else {
      out[i] = 0.0;
    }
  }
%s|}
    n m n n (init_f st "a" m) (init_i st "b" n m) m (m / 2) (print_tail "out")

let aos st =
  let n = irange st 4 16 in
  Printf.sprintf
    {|struct pt {
  float x;
  float y;
  int tag;
};
int main(void) {
  int n = %d;
  struct pt ps[%d];
  float out[%d];
  for (i = 0; i < n; i++) {
    ps[i].x = (float)((i * %d + 1) %% 13) / 2.0;
    ps[i].y = (float)((i + %d) %% 7);
    ps[i].tag = i %% %d;
  }
  #pragma offload target(mic:0) in(ps[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    out[i] = ps[i].x * %d.0 + ps[i].y;
  }
%s|}
    n n n (irange st 2 6) (irange st 0 4) (irange st 2 5) (irange st 2 4)
    (print_tail "out")

let chain st ~read_buddy =
  let n = irange st 4 14 in
  let k = irange st 1 (n - 1) in
  let body =
    if read_buddy then
      Printf.sprintf "    out[i] = rs[i].w * %d.0 + rs[i].buddy->w;"
        (irange st 2 4)
    else Printf.sprintf "    out[i] = rs[i].w * %d.0;" (irange st 2 4)
  in
  Printf.sprintf
    {|struct rec {
  float w;
  struct rec *buddy;
};
int main(void) {
  int n = %d;
  struct rec rs[%d];
  float out[%d];
  for (i = 0; i < n; i++) {
    rs[i].w = (float)((i * %d + 2) %% 11);
    rs[i].buddy = &rs[(i + %d) %% n];
  }
  #pragma offload target(mic:0) in(rs[0:n]) out(out[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
%s
  }
%s|}
    n n n (irange st 2 8) k body (print_tail "out")

let multi_offload ?(host_scalar = false) st =
  let n = irange st 4 14 in
  let iters = irange st 2 4 in
  let inner = irange st 2 3 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header ());
  Buffer.add_string buf (Printf.sprintf "  int n = %d;\n" n);
  Buffer.add_string buf (Printf.sprintf "  float x[%d];\n  float y[%d];\n" n n);
  if host_scalar then Buffer.add_string buf "  int ticks = 0;\n";
  Buffer.add_string buf (init_f st "x" n);
  Buffer.add_string buf (init_f st "y" n);
  Buffer.add_string buf (Printf.sprintf "  for (t = 0; t < %d; t++) {\n" iters);
  for j = 0 to inner - 1 do
    let c = irange st 2 5 in
    Buffer.add_string buf
      "    #pragma offload target(mic:0) in(x[0:n]) inout(y[0:n])\n";
    Buffer.add_string buf "    #pragma omp parallel for\n";
    Buffer.add_string buf "    for (i = 0; i < n; i++) {\n";
    if j mod 2 = 0 then
      Buffer.add_string buf (Printf.sprintf "      y[i] = y[i] + x[i] * %d.0;\n" c)
    else
      Buffer.add_string buf
        (Printf.sprintf "      y[i] = y[i] * 0.5 + %d.0;\n" c);
    Buffer.add_string buf "    }\n"
  done;
  if host_scalar then Buffer.add_string buf "    ticks = ticks + 1;\n";
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  for (i = 0; i < n; i++) { print_float(y[i]); }\n";
  if host_scalar then Buffer.add_string buf "  print_int(ticks);\n";
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

let plain_loop st =
  let n = irange st 3 12 in
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  int acc[1];
  int j = 0;
  acc[0] = 0;
  while (j < n) {
    acc[0] = acc[0] + j * %d;
    j = j + 1;
  }
  print_int(acc[0]);
  return 0;
}
|}
    n (irange st 1 5)

let inout st =
  let n = irange st 4 18 in
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  float a[%d];
  float acc[%d];
%s  for (i = 0; i < n; i++) { acc[i] = (float)(i %% %d); }
  #pragma offload target(mic:0) in(a[0:n]) inout(acc[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    acc[i] = acc[i] * 0.5 + a[i] * %d.0;
  }
%s|}
    n n n (init_f st "a" n) (irange st 3 9) (irange st 1 3) (print_tail "acc")

(** [generate pat ~seed] is the deterministic instance of [pat] for
    [seed], as MiniC source text. *)
let generate pattern ~seed =
  let st = rng pattern seed in
  match pattern with
  | Dense -> dense st
  | Stencil -> stencil st
  | Sparse_stride -> sparse_stride st
  | Step_loop -> step_loop st
  | Gather -> gather st
  | Guarded_gather -> guarded_gather st
  | Aos -> aos st
  | Chain -> chain st ~read_buddy:(Random.State.bool st)
  | Multi_offload -> multi_offload st
  | Host_scalar -> multi_offload ~host_scalar:true st
  | Plain_loop -> plain_loop st
  | Inout -> inout st
