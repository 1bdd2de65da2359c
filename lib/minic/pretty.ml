(** Pretty-printer emitting valid MiniC source.  [parse (print p) = p]
    is property-tested; this is what makes the transformations genuinely
    source-to-source. *)

open Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let rec ty_str = function
  | Tvoid -> "void"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tbool -> "bool"
  | Tptr t -> ty_str t ^ "*"
  | Tarray (t, _) -> ty_str t ^ "[]"
  | Tstruct s -> "struct " ^ s

(* Print a float so it re-lexes as a float literal, using the shortest
   representation that round-trips to the same value. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let exact prec =
      let s = Printf.sprintf "%.*g" prec f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match (exact 9, exact 12, exact 15) with
      | Some s, _, _ | None, Some s, _ | None, None, Some s -> s
      | None, None, None -> Printf.sprintf "%.17g" f
    in
    (* %g may print integral values without '.', which would re-lex as
       an int literal *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
    else s ^ ".0"

let rec expr_str ?(ctx = 0) e =
  let paren p s = if p < ctx then "(" ^ s ^ ")" else s in
  match e with
  | Int_lit n -> if n < 0 then "(" ^ string_of_int n ^ ")" else string_of_int n
  | Float_lit f -> float_str f
  | Bool_lit b -> if b then "true" else "false"
  | Var v -> v
  | Index (a, i) -> postfix_str a ^ "[" ^ expr_str i ^ "]"
  | Field (e, f) -> postfix_str e ^ "." ^ f
  | Arrow (e, f) -> postfix_str e ^ "->" ^ f
  | Deref e -> paren 6 ("*" ^ expr_str ~ctx:6 e)
  | Addr e -> paren 6 ("&" ^ expr_str ~ctx:6 e)
  | Unop (Neg, e) ->
      (* avoid "--" (it would lex as decrement), and parenthesize
         literal operands so [-(5)] does not re-parse as the folded
         literal [Int_lit (-5)] *)
      let s = expr_str ~ctx:6 e in
      let starts_like_literal =
        String.length s > 0
        && (s.[0] = '-' || s.[0] = '.' || (s.[0] >= '0' && s.[0] <= '9'))
      in
      let s = if starts_like_literal then "(" ^ s ^ ")" else s in
      paren 6 ("-" ^ s)
  | Unop (Not, e) -> paren 6 ("!" ^ expr_str ~ctx:6 e)
  | Binop (op, a, b) ->
      let p = prec op in
      (* left-associative: the right operand needs strictly higher prec *)
      paren p (expr_str ~ctx:p a ^ " " ^ binop_str op ^ " "
               ^ expr_str ~ctx:(p + 1) b)
  | Call (f, args) ->
      f ^ "(" ^ String.concat ", " (List.map expr_str args) ^ ")"
  | Cast (t, e) -> paren 6 ("(" ^ ty_str t ^ ")" ^ expr_str ~ctx:6 e)

(* operand of [], ., -> must be a postfix/primary expression *)
and postfix_str e =
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ | Index _ | Field _
  | Arrow _ | Call _ ->
      expr_str e
  | _ -> "(" ^ expr_str e ^ ")"

let section_str s =
  let base =
    Printf.sprintf "%s[%s:%s]" s.arr (expr_str s.start) (expr_str s.len)
  in
  match s.into with
  | None -> base
  | Some (dst, ofs) ->
      Printf.sprintf "%s : into(%s[%s:%s])" base dst (expr_str ofs)
        (expr_str s.len)

let clause name sections =
  match sections with
  | [] -> ""
  | _ ->
      Printf.sprintf " %s(%s)" name
        (String.concat ", " (List.map section_str sections))

let spec_str spec =
  Printf.sprintf "target(mic:%d)%s%s%s%s%s%s%s" spec.target
    (clause "in" spec.ins)
    (clause "out" spec.outs)
    (clause "inout" spec.inouts)
    (match spec.nocopy with
    | [] -> ""
    | ns -> " nocopy(" ^ String.concat ", " ns ^ ")")
    (match spec.translate with
    | [] -> ""
    | ns -> " translate(" ^ String.concat ", " ns ^ ")")
    (match spec.signal with
    | None -> ""
    | Some e -> " signal(" ^ expr_str e ^ ")")
    (match spec.wait with
    | None -> ""
    | Some e -> " wait(" ^ expr_str e ^ ")")

let pragma_str = function
  | Omp_parallel_for -> "#pragma omp parallel for"
  | Omp_simd -> "#pragma omp simd"
  | Offload spec -> "#pragma offload " ^ spec_str spec
  | Offload_transfer spec -> "#pragma offload_transfer " ^ spec_str spec
  | Offload_wait e ->
      Printf.sprintf "#pragma offload_wait target(mic:0) wait(%s)"
        (expr_str e)

let decl_str t name =
  match t with
  | Tarray (elt, Some n) ->
      Printf.sprintf "%s %s[%s]" (ty_str elt) name (expr_str n)
  | Tarray (elt, None) -> Printf.sprintf "%s %s[]" (ty_str elt) name
  | _ -> Printf.sprintf "%s %s" (ty_str t) name

let rec pp_stmt buf indent stmt =
  let pad = String.make indent ' ' in
  let line s = Buffer.add_string buf (pad ^ s ^ "\n") in
  match stmt with
  | Sexpr e -> line (expr_str e ^ ";")
  | Sassign (lv, rv) -> line (expr_str lv ^ " = " ^ expr_str rv ^ ";")
  | Sdecl (t, name, init) ->
      let rhs = match init with
        | None -> ""
        | Some e -> " = " ^ expr_str e
      in
      line (decl_str t name ^ rhs ^ ";")
  | Sif (c, b1, []) ->
      line ("if (" ^ expr_str c ^ ") {");
      pp_block buf (indent + 2) b1;
      line "}"
  | Sif (c, b1, b2) ->
      line ("if (" ^ expr_str c ^ ") {");
      pp_block buf (indent + 2) b1;
      line "} else {";
      pp_block buf (indent + 2) b2;
      line "}"
  | Swhile (c, b) ->
      line ("while (" ^ expr_str c ^ ") {");
      pp_block buf (indent + 2) b;
      line "}"
  | Sfor { index; lo; hi; step; body } ->
      let inc =
        match step with
        | Int_lit 1 -> index ^ "++"
        | e -> index ^ " += " ^ expr_str e
      in
      line
        (Printf.sprintf "for (%s = %s; %s < %s; %s) {" index (expr_str lo)
           index (expr_str hi) inc);
      pp_block buf (indent + 2) body;
      line "}"
  | Sreturn None -> line "return;"
  | Sreturn (Some e) -> line ("return " ^ expr_str e ^ ";")
  | Sblock b ->
      line "{";
      pp_block buf (indent + 2) b;
      line "}"
  | Spragma (((Offload_wait _ | Offload_transfer _) as p), Sblock []) ->
      line (pragma_str p)
  | Spragma (p, s) ->
      line (pragma_str p);
      pp_stmt buf indent s
  | Sbreak -> line "break;"
  | Scontinue -> line "continue;"

and pp_block buf indent block = List.iter (pp_stmt buf indent) block

let pp_global buf = function
  | Gstruct { sname; sfields } ->
      Buffer.add_string buf (Printf.sprintf "struct %s {\n" sname);
      List.iter
        (fun (t, f) ->
          Buffer.add_string buf ("  " ^ decl_str t f ^ ";\n"))
        sfields;
      Buffer.add_string buf "};\n\n"
  | Gvar (t, name, init) ->
      let rhs = match init with
        | None -> ""
        | Some e -> " = " ^ expr_str e
      in
      Buffer.add_string buf (decl_str t name ^ rhs ^ ";\n\n")
  | Gfunc { ret; fname; params; body } ->
      let ps =
        match params with
        | [] -> "void"
        | _ ->
            String.concat ", "
              (List.map (fun p -> decl_str p.pty p.pname) params)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s(%s) {\n" (ty_str ret) fname ps);
      pp_block buf 2 body;
      Buffer.add_string buf "}\n\n"

(** Render a whole program back to MiniC source text. *)
let program_to_string prog =
  let buf = Buffer.create 1024 in
  List.iter (pp_global buf) prog;
  Buffer.contents buf

let expr_to_string = expr_str ~ctx:0
