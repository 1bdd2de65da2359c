(** Observability substrate for the runtime and the machine simulator.

    A sink collects three kinds of evidence while a schedule is built
    and executed:

    - {e counters}: cheap monotonic integers ([myo.page_faults],
      [runtime.segbuf_allocs], ...) — the raw material of Table III;
    - {e histograms}: distributions of a measured quantity (transfer
      sizes, span durations), bucketed by powers of two;
    - {e spans}: start/stop intervals on the simulated clock, tagged
      with a {!kind} ([h2d], [kernel], [page_fault], ...) and an
      optional byte payload — the event trace behind the [--profile]
      breakdown.

    Everything is optional at the call sites: instrumented functions
    take [?obs] and do nothing when none is supplied, so the
    uninstrumented paths stay exactly as cheap as before. *)

(** Classification of spans (and of engine tasks).  The names mirror
    the phases the paper's evaluation measures. *)
type kind =
  | H2d  (** host-to-device DMA *)
  | D2h  (** device-to-host DMA *)
  | Kernel  (** device computation *)
  | Launch  (** kernel launch overhead *)
  | Signal  (** COI signal/wait traffic (thread reuse) *)
  | Page_fault  (** MYO on-demand page copies *)
  | Seg_alloc  (** segmented-buffer segment creation *)
  | Repack  (** host-side regularization work *)
  | Retry  (** fault recovery: retransfers, backoff, resets, fallback *)
  | Host  (** other host work: glue, allocation bookkeeping *)

let all_kinds =
  [ H2d; D2h; Kernel; Launch; Signal; Page_fault; Seg_alloc; Repack; Retry;
    Host ]

let kind_name = function
  | H2d -> "h2d"
  | D2h -> "d2h"
  | Kernel -> "kernel"
  | Launch -> "launch"
  | Signal -> "signal"
  | Page_fault -> "page_fault"
  | Seg_alloc -> "seg_alloc"
  | Repack -> "repack"
  | Retry -> "retry"
  | Host -> "host"

let kind_of_name = function
  | "h2d" -> Some H2d
  | "d2h" -> Some D2h
  | "kernel" -> Some Kernel
  | "launch" -> Some Launch
  | "signal" -> Some Signal
  | "page_fault" -> Some Page_fault
  | "seg_alloc" -> Some Seg_alloc
  | "repack" -> Some Repack
  | "retry" -> Some Retry
  | "host" -> Some Host
  | _ -> None

(** A completed span on the simulated clock. *)
type span = {
  span_kind : kind;
  span_label : string;
  span_bytes : float;
  span_start : float;
  span_stop : float;
}

type open_span = {
  o_id : int;
  o_kind : kind;
  o_label : string;
  o_bytes : float;
  o_start : float;
}

(** Histogram with power-of-two buckets: bucket [i] counts samples in
    [[2^(i-1), 2^i)] (bucket 0 holds everything below 1). *)
type histogram = {
  mutable h_count : int;
  mutable h_total : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;  (** 64 power-of-two buckets *)
}

type kind_stat = { ks_count : int; ks_bytes : float; ks_seconds : float }

let empty_stat = { ks_count = 0; ks_bytes = 0.; ks_seconds = 0. }

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable spans : span list;  (** completed, newest first *)
  mutable nspans : int;
  open_spans : (int, open_span) Hashtbl.t;
  mutable next_span : int;
  mutable absorbed : kind_stat array;
      (** per-kind totals of absorbed spans, indexed by {!kind_index};
          [[||]] until the first {!absorb}, so {!create} allocates no
          more than before *)
}

let create () =
  {
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    spans = [];
    nspans = 0;
    open_spans = Hashtbl.create 8;
    next_span = 0;
    absorbed = [||];
  }

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms;
  t.spans <- [];
  t.nspans <- 0;
  Hashtbl.reset t.open_spans;
  t.next_span <- 0;
  t.absorbed <- [||]

(* {1 Counters} *)

let add t name by =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let incr ?(by = 1) t name = add t name by

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Histograms} *)

let nbuckets = 64

let bucket_of v =
  if v < 1. then 0
  else
    let b = 1 + int_of_float (Float.log2 v) in
    min (nbuckets - 1) (max 0 b)

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h =
          {
            h_count = 0;
            h_total = 0.;
            h_min = infinity;
            h_max = neg_infinity;
            h_buckets = Array.make nbuckets 0;
          }
        in
        Hashtbl.replace t.histograms name h;
        h
  in
  h.h_count <- h.h_count + 1;
  h.h_total <- h.h_total +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let histogram t name = Hashtbl.find_opt t.histograms name

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mean h = if h.h_count = 0 then 0. else h.h_total /. float_of_int h.h_count

(* Fold [src] into an existing histogram.  An empty histogram carries
   the neutral [min = infinity] / [max = neg_infinity] pair (never 0 —
   a zero there would clamp the merged minimum of all-positive
   samples), so Float.min/max are the correct combiners even when one
   side has no samples. *)
let merge_histogram ~into:h src =
  h.h_count <- h.h_count + src.h_count;
  h.h_total <- h.h_total +. src.h_total;
  h.h_min <- Float.min h.h_min src.h_min;
  h.h_max <- Float.max h.h_max src.h_max;
  Array.iteri
    (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n)
    src.h_buckets

(* {1 Merging} *)

let kind_index = function
  | H2d -> 0
  | D2h -> 1
  | Kernel -> 2
  | Launch -> 3
  | Signal -> 4
  | Page_fault -> 5
  | Seg_alloc -> 6
  | Repack -> 7
  | Retry -> 8
  | Host -> 9

(* Each kind's fold over the held spans starts from its absorbed
   total, so a sink that never absorbed folds from zero, bit for bit
   as it did before absorbing existed. *)
let absorbed_of t kind =
  if Array.length t.absorbed = 0 then empty_stat
  else t.absorbed.(kind_index kind)

(* Add [stat] to [t]'s absorbed total of [kind]; the array is made on
   the first non-empty total. *)
let add_absorbed t (kind, stat) =
  if stat.ks_count > 0 then begin
    if Array.length t.absorbed = 0 then
      t.absorbed <- Array.make (List.length all_kinds) empty_stat;
    let i = kind_index kind in
    let a = t.absorbed.(i) in
    t.absorbed.(i) <-
      {
        ks_count = a.ks_count + stat.ks_count;
        ks_bytes = a.ks_bytes +. stat.ks_bytes;
        ks_seconds = a.ks_seconds +. stat.ks_seconds;
      }
  end

(* The step [merge] and [absorb] share: counters add and histograms
   combine. *)
let merge_counts dst src =
  if Hashtbl.length src.open_spans > 0 then
    invalid_arg "Obs: cannot fold a source sink with open spans";
  Hashtbl.iter (fun name r -> add dst name !r) src.counters;
  Hashtbl.iter
    (fun name sh ->
      match Hashtbl.find_opt dst.histograms name with
      | Some dh -> merge_histogram ~into:dh sh
      | None ->
          Hashtbl.replace dst.histograms name
            {
              h_count = sh.h_count;
              h_total = sh.h_total;
              h_min = sh.h_min;
              h_max = sh.h_max;
              h_buckets = Array.copy sh.h_buckets;
            })
    src.histograms

(** [merge dst src] folds [src] into [dst]: counters add, histograms
    combine (counts/totals/buckets add, min/max widen), absorbed
    totals add, and [src]'s completed spans are prepended to [dst]'s.

    Both sinks store completed spans {e newest-first}, so when each
    parallel task records into a private sink and the per-task sinks
    are merged in submission order ([merge acc s0; merge acc s1; ...]),
    the accumulated span list — and therefore every aggregate and the
    profile JSON — is exactly what one shared sink would have seen in
    the sequential run.

    [src] is left untouched and may not have open spans (an open span
    has no defined owner after the merge); [dst]'s open spans keep
    their ids. *)
let merge dst src =
  merge_counts dst src;
  List.iter (fun k -> add_absorbed dst (k, absorbed_of src k)) all_kinds;
  (* src's spans are newer than everything already in dst *)
  dst.spans <- src.spans @ dst.spans;
  dst.nspans <- dst.nspans + src.nspans

(* {1 Spans} *)

let span_begin ?(bytes = 0.) t kind ~label ~start =
  let id = t.next_span in
  t.next_span <- id + 1;
  Hashtbl.replace t.open_spans id
    { o_id = id; o_kind = kind; o_label = label; o_bytes = bytes;
      o_start = start };
  id

let span_end t id ~stop =
  match Hashtbl.find_opt t.open_spans id with
  | None -> invalid_arg (Printf.sprintf "Obs.span_end: span %d not open" id)
  | Some o ->
      Hashtbl.remove t.open_spans id;
      t.spans <-
        {
          span_kind = o.o_kind;
          span_label = o.o_label;
          span_bytes = o.o_bytes;
          span_start = o.o_start;
          span_stop = Float.max stop o.o_start;
        }
        :: t.spans;
      t.nspans <- t.nspans + 1

(** Record a complete span (begin + end in one call). *)
let span ?bytes t kind ~label ~start ~stop =
  let id = span_begin ?bytes t kind ~label ~start in
  span_end t id ~stop

let spans t = List.rev t.spans

let span_count t = t.nspans

let unclosed t =
  Hashtbl.fold (fun _ o acc -> (o.o_kind, o.o_label) :: acc) t.open_spans []

(* {1 Aggregates} *)

let stat_of_kind t kind =
  List.fold_left
    (fun acc s ->
      if s.span_kind = kind then
        {
          ks_count = acc.ks_count + 1;
          ks_bytes = acc.ks_bytes +. s.span_bytes;
          ks_seconds = acc.ks_seconds +. (s.span_stop -. s.span_start);
        }
      else acc)
    (absorbed_of t kind) t.spans

(** Per-kind totals over absorbed and completed spans, in {!all_kinds}
    order, kinds with no spans omitted. *)
let by_kind t =
  List.filter_map
    (fun k ->
      let s = stat_of_kind t k in
      if s.ks_count = 0 then None else Some (k, s))
    all_kinds

let bytes_of_kind t kind = (stat_of_kind t kind).ks_bytes
let seconds_of_kind t kind = (stat_of_kind t kind).ks_seconds
let count_of_kind t kind = (stat_of_kind t kind).ks_count

(** [absorb dst src] is {!merge} that keeps none of [src]'s spans:
    their per-kind totals ({!by_kind}) are added to [dst]'s absorbed
    totals instead. *)
let absorb dst src =
  merge_counts dst src;
  List.iter (add_absorbed dst) (by_kind src)

(* {1 JSON} *)

(** A dependency-free JSON tree, enough for [--profile -o]. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* finite floats only; [write] maps non-finite values to null *)
  let float_str f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.9g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        Buffer.add_string buf
          (if Float.is_finite f then float_str f else "null")
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf

  (* {2 Parsing} *)

  exception Parse_error of string

  (** Strict recursive-descent parser for one JSON document.  Accepts
      exactly what {!write} produces (plus arbitrary inter-token
      whitespace); rejects trailing garbage.  Numbers without [.]/[e]
      that fit in an OCaml [int] parse as [Int], everything else as
      [Float].  Never raises: malformed input is [Error msg]. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = pos := !pos + 1 in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (
        pos := !pos + l;
        v)
      else fail "invalid literal"
    in
    let add_utf8 buf code =
      (* BMP codepoints only; surrogate halves pass through as-is *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then (
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
      else (
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
              advance ();
              Buffer.contents buf
          | '\\' ->
              advance ();
              if !pos >= n then fail "unterminated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' -> (
                  if !pos + 4 >= n then fail "truncated \\u escape";
                  match
                    int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4)
                  with
                  | Some code ->
                      add_utf8 buf code;
                      pos := !pos + 4
                  | None -> fail "bad \\u escape")
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              advance ();
              loop ()
          | c when Char.code c < 0x20 -> fail "control character in string"
          | c ->
              Buffer.add_char buf c;
              advance ();
              loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let numeric = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while
        match peek () with Some c when numeric c -> true | _ -> false
      do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "malformed number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            List [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing characters";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("total", Json.Float h.h_total);
      ("mean", Json.Float (mean h));
      ("min", Json.Float (if h.h_count = 0 then 0. else h.h_min));
      ("max", Json.Float (if h.h_count = 0 then 0. else h.h_max));
    ]

(** Counters, per-kind span totals, and histogram summaries as a JSON
    object (the ["counters"]/["kinds"]/["histograms"] sections of the
    [--profile -o] schema). *)
let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
      ( "kinds",
        Json.List
          (List.map
             (fun (k, s) ->
               Json.Obj
                 [
                   ("kind", Json.String (kind_name k));
                   ("count", Json.Int s.ks_count);
                   ("bytes", Json.Float s.ks_bytes);
                   ("seconds", Json.Float s.ks_seconds);
                 ])
             (by_kind t)) );
      ( "histograms",
        Json.Obj
          (List.map (fun (k, h) -> (k, histogram_json h)) (histograms t)) );
    ]
