(* Key registry ------------------------------------------------------------- *)

(* A process-wide table per kind of entry maps each key to the slot
   every [t] stores it at, so an update through a handle is an array
   access and only registration hashes the name. The kinds have separate
   namespaces: a time, a maximum and a histogram may share a key. *)
type registry = { slots : (string, int) Hashtbl.t; mutable names : string array }

let registry () = { slots = Hashtbl.create 64; names = [||] }
let size r = Hashtbl.length r.slots

let register r name =
  match Hashtbl.find_opt r.slots name with
  | Some i -> i
  | None ->
    let i = size r in
    if i = Array.length r.names then begin
      let names = Array.make (max 64 (2 * i)) "" in
      Array.blit r.names 0 names 0 i;
      r.names <- names
    end;
    r.names.(i) <- name;
    Hashtbl.add r.slots name i;
    i

let counters = registry ()
let timers = registry ()
let maxima = registry ()
let serieses = registry ()

type counter = int
type timer = int
type maximum = int
type series = int

let counter = register counters
let timer = register timers
let maximum = register maxima
let series = register serieses

(* Store --------------------------------------------------------------------- *)

(* One flat array per kind, indexed by slot, with a byte per slot that
   says whether it was updated (or declared) since [create] or [reset]:
   reports list exactly those. A histogram slot is touched when it holds
   [Some]. *)
type t = {
  mutable counts : int array;
  mutable counted : Bytes.t;
  mutable times : Float.Array.t;
  mutable timed : Bytes.t;
  mutable maxes : Float.Array.t;
  mutable maxed : Bytes.t;
  mutable histos : Histo.t option array;
  mutable trace : Trace.t option;
}

let create () =
  {
    counts = Array.make (size counters) 0;
    counted = Bytes.make (size counters) '\000';
    times = Float.Array.make (size timers) 0.0;
    timed = Bytes.make (size timers) '\000';
    maxes = Float.Array.make (size maxima) 0.0;
    maxed = Bytes.make (size maxima) '\000';
    histos = Array.make (size serieses) None;
    trace = None;
  }

(* A key registered after [t] was created lies past the end of its
   arrays; its first update grows them to the registry's size. *)
let grown a n zero =
  let a' = Array.make n zero in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grown_flags b n =
  let b' = Bytes.make n '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let grown_floats a n =
  let a' = Float.Array.make n 0.0 in
  Float.Array.blit a 0 a' 0 (Float.Array.length a);
  a'

let grow_counts t =
  t.counts <- grown t.counts (size counters) 0;
  t.counted <- grown_flags t.counted (size counters)

let grow_times t =
  t.times <- grown_floats t.times (size timers);
  t.timed <- grown_flags t.timed (size timers)

let grow_maxes t =
  t.maxes <- grown_floats t.maxes (size maxima);
  t.maxed <- grown_flags t.maxed (size maxima)

let grow_histos t = t.histos <- grown t.histos (size serieses) None

(* Each update checks its slot against the array length itself, so the
   accesses after the check are unchecked. *)
let bump_by t c n =
  if c >= Array.length t.counts then grow_counts t;
  Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + n);
  Bytes.unsafe_set t.counted c '\001'

let bump t c = bump_by t c 1

let add_to t k dt =
  if k >= Float.Array.length t.times then grow_times t;
  Float.Array.unsafe_set t.times k (Float.Array.unsafe_get t.times k +. dt);
  Bytes.unsafe_set t.timed k '\001'

(* Maxima live apart from the cumulative times: storing them together
   made [cleaner.max_stall] pretty-print as accumulated seconds, and an
   [add_to] on the same key silently corrupted the maximum. *)
let note_max t m v =
  if m >= Float.Array.length t.maxes then grow_maxes t;
  if v > Float.Array.unsafe_get t.maxes m then Float.Array.unsafe_set t.maxes m v;
  Bytes.unsafe_set t.maxed m '\001'

let histo_slot t s =
  if s >= Array.length t.histos then grow_histos t;
  match Array.unsafe_get t.histos s with
  | Some h -> h
  | None ->
    let h = Histo.create () in
    Array.unsafe_set t.histos s (Some h);
    h

let declare_at t s = ignore (histo_slot t s)

let histo_invalid = counter "histo.invalid"

let observe_at t s v =
  (* Invalid samples (NaN, negative) are dropped by the histogram; keep
     them visible as a counter so an instrumentation bug upstream shows
     up in artifacts instead of silently thinning a distribution. *)
  if not (Histo.is_valid v) then bump t histo_invalid;
  Histo.add (histo_slot t s) v

(* By name, for cold callers: one registry lookup, then the slot update. *)
let incr t key = bump t (counter key)

(* Reads never register: an unknown key reads as zero or absent. An
   untouched slot holds zero, so only the bound needs checking. *)
let lookup r key len =
  match Hashtbl.find_opt r.slots key with
  | Some i when i < len -> Some i
  | _ -> None

let count t key =
  match lookup counters key (Array.length t.counts) with
  | Some i -> t.counts.(i)
  | None -> 0

let time t key =
  match lookup timers key (Float.Array.length t.times) with
  | Some i -> Float.Array.get t.times i
  | None -> 0.0

let max_of t key =
  match lookup maxima key (Float.Array.length t.maxes) with
  | Some i -> Float.Array.get t.maxes i
  | None -> 0.0

let histo t key =
  match lookup serieses key (Array.length t.histos) with
  | Some i -> t.histos.(i)
  | None -> None

(* Tracing ----------------------------------------------------------------- *)

let set_trace t tr = t.trace <- tr
let trace t = t.trace
let tracing t = t.trace <> None

let emit t ~time name attrs =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.emit tr ~t:time name attrs

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Bytes.fill t.counted 0 (Bytes.length t.counted) '\000';
  Float.Array.fill t.times 0 (Float.Array.length t.times) 0.0;
  Bytes.fill t.timed 0 (Bytes.length t.timed) '\000';
  Float.Array.fill t.maxes 0 (Float.Array.length t.maxes) 0.0;
  Bytes.fill t.maxed 0 (Bytes.length t.maxed) '\000';
  Array.fill t.histos 0 (Array.length t.histos) None

(* Reporting --------------------------------------------------------------- *)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* [(name, f slot)] for every touched slot, prepended to [acc]. *)
let touched r flags f acc =
  let acc = ref acc in
  for i = Bytes.length flags - 1 downto 0 do
    if Bytes.get flags i <> '\000' then acc := (r.names.(i), f i) :: !acc
  done;
  !acc

let counts_of t f = touched counters t.counted (fun i -> f t.counts.(i))
let times_of t f = touched timers t.timed (fun i -> f (Float.Array.get t.times i))
let maxes_of t f = touched maxima t.maxed (fun i -> f (Float.Array.get t.maxes i))

let histograms t =
  let acc = ref [] in
  for i = Array.length t.histos - 1 downto 0 do
    match t.histos.(i) with
    | Some h -> acc := (serieses.names.(i), h) :: !acc
    | None -> ()
  done;
  by_name !acc

(* A stable sort over maxima, then times, then counts: where a maximum,
   a time and a counter share a key they list in that order. *)
let to_list t =
  by_name
    (maxes_of t (fun m -> `Max m)
       (times_of t (fun s -> `Seconds s) (counts_of t (fun n -> `Count n) [])))

let pp ppf t =
  let pp_entry ppf = function
    | key, `Count n -> Format.fprintf ppf "%s: %d" key n
    | key, `Seconds s -> Format.fprintf ppf "%s: %.6fs" key s
    | key, `Max m -> Format.fprintf ppf "%s: max %.6fs" key m
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry)
    (to_list t);
  List.iter
    (fun (k, h) -> if Histo.count h > 0 then Format.fprintf ppf "@,%s: %a" k Histo.pp h)
    (histograms t)

let to_json t =
  Json.Obj
    [
      ("counters", Json.Obj (by_name (counts_of t (fun n -> Json.Int n) [])));
      ("times_s", Json.Obj (by_name (times_of t (fun s -> Json.Float s) [])));
      ("maxes_s", Json.Obj (by_name (maxes_of t (fun m -> Json.Float m) [])));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, Histo.to_json h)) (histograms t)) );
    ]
