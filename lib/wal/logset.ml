(* A set of parallel WAL streams (Taurus-style). Each stream is a full
   Logmgr — its own append buffer, force mutex and group-commit
   rendezvous — so committers assigned to different streams no longer
   serialize on one append tail. Cross-stream ordering is recovered from
   the vector LSNs carried by the records (see merged_records). *)

type t = { streams : Logmgr.t array; stats : Stats.t }

let k_dep_checks = Stats.counter "log.dep_checks"
let h_dep_checks = Stats.series "log.dep_checks"
let k_dep_forces = Stats.counter "log.dep_forces"
let h_dep_forces = Stats.series "log.dep_forces"
let k_merge_dropped = Stats.counter "log.merge_dropped"

let create clock stats cfg ~homes ~path =
  let ns = cfg.Config.fs.log_streams in
  if ns < 1 then invalid_arg "Logset.create: log_streams must be >= 1";
  if ns > 0xfe then invalid_arg "Logset.create: too many log streams";
  if Array.length homes = 0 then invalid_arg "Logset.create: no log homes";
  let streams =
    Array.init ns (fun i ->
        let vfs = homes.(i mod Array.length homes) in
        let path = if ns = 1 then path else Printf.sprintf "%s.%d" path i in
        let tag = if ns = 1 then None else Some (Printf.sprintf "s%d" i) in
        Logmgr.open_log ?tag clock stats cfg vfs ~path)
  in
  if ns > 1 then begin
    Stats.declare_at stats h_dep_forces;
    Stats.declare_at stats h_dep_checks
  end;
  { streams; stats }

let n t = Array.length t.streams
let get t i = t.streams.(i)

(* Hash-assign transactions to streams. Txn ids are dense sequential
   integers, so modulo doubles as round-robin across workers. Txn 0
   (system/redo-only writes) is logged to the enclosing transaction's
   stream by the caller, never looked up here. *)
let stream_of_txn t id = if n t = 1 then 0 else id mod n t

(* Force every *other* stream up to the dependency watermark before the
   caller's own commit record is appended: once our commit is durable —
   possibly via another committer's group force, at any moment after the
   append — every update it depends on must be durable too. *)
let force_deps t ~own deps =
  Array.iteri
    (fun s upto ->
      if s <> own && upto >= 0 then begin
        Stats.bump t.stats k_dep_checks;
        if upto >= Logmgr.flushed_lsn t.streams.(s) then begin
          Stats.bump t.stats k_dep_forces;
          Logmgr.force t.streams.(s) ~upto
        end
      end)
    deps

let force_all t =
  Array.iter
    (fun lm ->
      let upto = Logmgr.next_lsn lm - 1 in
      if upto >= Logmgr.flushed_lsn lm then Logmgr.force lm ~upto)
    t.streams

let truncate_all t = Array.iter Logmgr.truncate t.streams
let flushed_total t = Array.fold_left (fun a lm -> a + Logmgr.flushed_lsn lm) 0 t.streams

(* Merge the durable streams into one replay order that respects the
   dependency partial order:

   - an Update with a cross-stream chain pointer (pstream, plsn) must
     replay after that predecessor record;
   - a Commit/Abort with dep vector entries must replay after each
     (stream, lsn) watermark it names.

   A dependency pointing at or beyond a stream's durable end names a
   record lost in the crash. Its value is not needed — after-images are
   absolute bytes, and an overlapping successor subsumes the lost
   intermediate — but its ORDER still is: the lost record had chain /
   dep edges of its own, and skipping it outright would let the
   dependent record replay ahead of durable records that real time put
   before it (e.g. the history-count chain A -> lost -> B: B's image
   must not be clobbered by A's replaying later). So a lost dependency
   is treated as a dependency on the referenced stream's entire durable
   portion: everything transitively ordered before the lost record
   lives in that prefix. This cannot deadlock for states a real crash
   can reach — a record whose dependency is lost was appended after the
   other stream's whole durable prefix (the lost record postdates it,
   and the chain points to the past), so these waits always agree with
   real-time order.

   Dep vectors are acyclic by construction (they only name records
   appended before the dependent record was appended), so the greedy
   drain below always makes progress: the head whose record was
   appended earliest — across all streams, in real time — has all its
   dependencies already merged or lost-and-drained. Records left over
   when no head is eligible can only be an illegal combination of
   suffixes (manufactured, not crash-reachable); they are dropped
   (counted under "log.merge_dropped"). *)
let merged_records t =
  let ns = n t in
  let recs =
    Array.map
      (fun lm -> Array.of_list (List.of_seq (Logmgr.read_from lm 0)))
      t.streams
  in
  (* Replay only the tail from each stream's last checkpoint, as
     single-stream recovery does. *)
  let start = Array.make ns 0 in
  Array.iteri
    (fun s rs ->
      Array.iteri
        (fun i (_, r) ->
          match r.Logrec.body with
          | Logrec.Checkpoint _ -> start.(s) <- i
          | _ -> ())
        rs)
    recs;
  let durable = Array.map Logmgr.flushed_lsn t.streams in
  let cursor = Array.copy start in
  (* End offset of the last record merged from each stream: every
     record at a strictly lower LSN has been replayed. *)
  let merged = Array.make ns 0 in
  let covered s lsn =
    s < 0 || s >= ns || lsn < 0
    || lsn < merged.(s)
    || (lsn >= durable.(s) && cursor.(s) >= Array.length recs.(s))
  in
  let eligible (r : Logrec.t) =
    match r.body with
    | Logrec.Update { pstream; plsn; _ } -> covered pstream plsn
    | Logrec.Commit { deps } | Logrec.Abort { deps } ->
      List.for_all (fun (ds, dl) -> covered ds dl) deps
    | Logrec.Begin | Logrec.Checkpoint _ -> true
  in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for s = 0 to ns - 1 do
      let continue = ref true in
      while !continue && cursor.(s) < Array.length recs.(s) do
        let lsn, r = recs.(s).(cursor.(s)) in
        if eligible r then begin
          out := (s, lsn, r) :: !out;
          merged.(s) <- lsn + Logrec.size r;
          cursor.(s) <- cursor.(s) + 1;
          progress := true
        end
        else continue := false
      done
    done
  done;
  let dropped = ref 0 in
  for s = 0 to ns - 1 do
    dropped := !dropped + (Array.length recs.(s) - cursor.(s))
  done;
  if !dropped > 0 then Stats.bump_by t.stats k_merge_dropped !dropped;
  List.rev !out
