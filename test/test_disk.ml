(* Tests for the disk service-time model and the request scheduler. *)

let mk () =
  let m = Tutil.machine () in
  (m.Tutil.clock, m.Tutil.disk)

let test_rw_roundtrip () =
  let _, d = mk () in
  let b = Tutil.payload 1 (Disk.block_size d) in
  Disk.write d 17 b;
  Tutil.check_bytes "read back" b (Disk.read d 17)

let test_run_roundtrip () =
  let _, d = mk () in
  let bs = Disk.block_size d in
  let data = Tutil.payload 2 (5 * bs) in
  Disk.write_run d 100 data;
  Tutil.check_bytes "run read back" data (Disk.read_run d 100 5);
  Tutil.check_bytes "single block within run"
    (Bytes.sub data (2 * bs) bs)
    (Disk.read d 102)

let test_time_charged () =
  let c, d = mk () in
  let b = Bytes.make (Disk.block_size d) 'x' in
  let t0 = Clock.now c in
  Disk.write d 0 b;
  Alcotest.(check bool) "I/O takes time" true (Clock.now c > t0)

let test_sequential_cheaper_than_random () =
  let cfg = Tutil.small_config () in
  let seq =
    let m = Tutil.machine ~cfg () in
    let bs = cfg.Config.disk.block_size in
    Disk.write_run m.Tutil.disk 0 (Bytes.make (64 * bs) 'a');
    Clock.now m.Tutil.clock
  in
  let rand =
    let m = Tutil.machine ~cfg () in
    let bs = cfg.Config.disk.block_size in
    let b = Bytes.make bs 'a' in
    for i = 0 to 63 do
      Disk.write m.Tutil.disk (((i * 37) mod 64) * 64) b
    done;
    Clock.now m.Tutil.clock
  in
  Alcotest.(check bool)
    (Printf.sprintf "sequential (%.4fs) beats random (%.4fs) by 5x" seq rand)
    true
    (seq *. 5.0 < rand)

let test_zero_seek_continuation () =
  let _, d = mk () in
  let bs = Disk.block_size d in
  Disk.write d 10 (Bytes.make bs 'x');
  (* Head now at block 11; continuing there needs no seek or rotation. *)
  let t = Disk.service_time d 11 ~nblocks:1 in
  let expect = float_of_int bs /. Config.default.Config.disk.transfer_bytes_per_s in
  Alcotest.(check (float 1e-9)) "pure transfer" expect t

let test_service_time_monotone_in_distance () =
  let _, d = mk () in
  let near = Disk.service_time d 64 ~nblocks:1 in
  let far = Disk.service_time d 4000 ~nblocks:1 in
  Alcotest.(check bool) "longer seeks cost more" true (far > near)

let test_out_of_range () =
  let _, d = mk () in
  Alcotest.(check bool) "read out of range rejected" true
    (match Disk.read d (Disk.nblocks d) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative rejected" true
    (match Disk.read d (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_peek_poke_free () =
  let c, d = mk () in
  let b = Tutil.payload 3 (Disk.block_size d) in
  let t0 = Clock.now c in
  Disk.poke d 5 b;
  Tutil.check_bytes "poke/peek" b (Disk.peek d 5);
  Alcotest.(check (float 0.0)) "no time charged" t0 (Clock.now c)

let test_elevator_order () =
  let reqs = [ (50, "a"); (10, "b"); (90, "c"); (30, "d") ] in
  let ordered = Elevator.order ~head:40 reqs in
  Alcotest.(check (list int)) "ascending from head, then wrap"
    [ 50; 90; 10; 30 ]
    (List.map fst ordered)

let prop_elevator_is_permutation =
  Tutil.qtest "elevator preserves requests"
    QCheck2.Gen.(pair (int_bound 1000) (list (int_bound 1000)))
    (fun (head, blocks) ->
      let reqs = List.map (fun b -> (b, ())) blocks in
      let out = Elevator.order ~head reqs in
      List.sort compare (List.map fst out) = List.sort compare blocks)

(* Queued reads under the scheduler: concurrent processes enqueue
   requests, the server daemon serves them in elevator order, and each
   process gets the bytes that were on the platter at submission. *)
let test_read_async_queue () =
  let c, d = mk () in
  let bs = Disk.block_size d in
  let blocks = [ 900; 50; 700; 200 ] in
  List.iter (fun b -> Disk.write d b (Tutil.payload b bs)) blocks;
  let sched = Sched.create c in
  let done_order = ref [] in
  List.iter
    (fun b ->
      Sched.spawn sched (fun () ->
          let data = Bytes.create bs in
          Disk.read_async d b data;
          Tutil.check_bytes "content" (Tutil.payload b bs) data;
          done_order := b :: !done_order))
    blocks;
  Sched.run sched;
  Sched.detach sched;
  let served = List.rev !done_order in
  Alcotest.(check int) "all served" 4 (List.length served);
  (* All four were queued before the server daemon first ran, so the
     elevator reordered them: service order differs from submission
     order yet is a single C-LOOK sweep (at most one descent). *)
  Alcotest.(check bool) "reordered" true (served <> blocks);
  let rec descents prev = function
    | [] -> 0
    | x :: rest -> (if x < prev then 1 else 0) + descents x rest
  in
  (match served with
  | x :: rest ->
    Alcotest.(check bool) "single sweep" true (descents x rest <= 1)
  | [] -> Alcotest.fail "nothing served")

let prop_elevator_clook_from_head =
  Tutil.qtest "elevator is C-LOOK-monotone from the head"
    QCheck2.Gen.(pair (int_bound 1000) (list (int_bound 1000)))
    (fun (head, blocks) ->
      (* Exactly: ascending blocks at or past the head, then one wrap to
         the ascending blocks below it. *)
      let ge, lt = List.partition (fun b -> b >= head) blocks in
      let reqs = List.map (fun b -> (b, ())) blocks in
      let out = List.map fst (Elevator.order ~head reqs) in
      out = List.sort compare ge @ List.sort compare lt)

let prop_elevator_single_sweep =
  Tutil.qtest "elevator does at most one wrap"
    QCheck2.Gen.(pair (int_bound 1000) (list (int_bound 1000)))
    (fun (head, blocks) ->
      let reqs = List.map (fun b -> (b, ())) blocks in
      let out = List.map fst (Elevator.order ~head reqs) in
      (* Direction changes downward at most once. *)
      let rec descents prev = function
        | [] -> 0
        | x :: rest -> (if x < prev then 1 else 0) + descents x rest
      in
      match out with [] -> true | x :: rest -> descents x rest <= 1)

(* Regression: a queued request pays a discounted (0.3x) seek. The seeks
   counter must test the *charged* value, and the discounted samples go
   to their own "disk.seek.queued" histogram instead of polluting the
   cold-seek distribution. *)
let test_queued_seek_accounting () =
  let histo m key =
    match Stats.histo m.Tutil.stats key with
    | Some h -> h
    | None -> Alcotest.failf "missing histogram %s" key
  in
  let unqueued =
    let m = Tutil.machine () in
    Disk.write m.Tutil.disk 4000 (Bytes.make (Disk.block_size m.Tutil.disk) 'x');
    m
  in
  let queued =
    let m = Tutil.machine () in
    Disk.write_queued m.Tutil.disk 4000
      (Bytes.make (Disk.block_size m.Tutil.disk) 'x');
    m
  in
  Alcotest.(check int) "unqueued sample in disk.seek" 1
    (Histo.count (histo unqueued "disk.seek"));
  Alcotest.(check int) "unqueued leaves disk.seek.queued empty" 0
    (Histo.count (histo unqueued "disk.seek.queued"));
  Alcotest.(check int) "unqueued seek counted" 1
    (Stats.count unqueued.Tutil.stats "disk.seeks");
  Alcotest.(check int) "queued sample in disk.seek.queued" 1
    (Histo.count (histo queued "disk.seek.queued"));
  Alcotest.(check int) "queued leaves disk.seek empty" 0
    (Histo.count (histo queued "disk.seek"));
  Alcotest.(check int) "queued seek counted" 1
    (Stats.count queued.Tutil.stats "disk.seeks");
  Alcotest.(check (float 1e-12)) "queued seek charged at 0.3x"
    (0.3 *. Histo.sum (histo unqueued "disk.seek"))
    (Histo.sum (histo queued "disk.seek.queued"));
  (* Zero-distance queued request: rotation is charged but no seek, so
     the counter must not tick. *)
  let m = Tutil.machine () in
  Disk.write_queued m.Tutil.disk 0
    (Bytes.make (Disk.block_size m.Tutil.disk) 'x');
  Alcotest.(check int) "zero-seek queued request not counted" 0
    (Stats.count m.Tutil.stats "disk.seeks")

(* Diskset: multi-spindle mapping behind the Disk API. *)

let stripe_cfg ?(ndisks = 2) ?(log_disk = false) () =
  let cfg = Tutil.small_config () in
  { cfg with Config.fs = { cfg.Config.fs with Config.ndisks; log_disk } }

let test_diskset_passthrough () =
  let m = Tutil.machine () in
  let ds = m.Tutil.disks in
  Alcotest.(check int) "same geometry" (Disk.nblocks m.Tutil.disk)
    (Diskset.nblocks ds);
  Alcotest.(check (list string)) "single member, historical name" [ "disk" ]
    (List.map fst (Diskset.members ds));
  let b = Tutil.payload 7 (Diskset.block_size ds) in
  Diskset.write ds 42 b;
  Tutil.check_bytes "write forwarded verbatim" b (Disk.peek m.Tutil.disk 42);
  Tutil.check_bytes "read back" b (Diskset.read ds 42)

let test_diskset_stripe_mapping () =
  let cfg = stripe_cfg ~ndisks:2 ~log_disk:true () in
  let m = Tutil.machine ~cfg () in
  let ds = m.Tutil.disks in
  let chunk = cfg.Config.fs.Config.segment_blocks in
  let bs = Diskset.block_size ds in
  let psegs = (cfg.Config.disk.Config.nblocks - 3) / chunk in
  Alcotest.(check int) "logical geometry spans both spindles"
    (3 + (2 * psegs * chunk))
    (Diskset.nblocks ds);
  let members = Diskset.members ds in
  Alcotest.(check (list string)) "member names"
    [ "disk0"; "disk1"; "disklog" ]
    (List.map fst members);
  (* The boot region stays on data disk 0. *)
  let b0 = Tutil.payload 1 bs in
  Diskset.write ds 0 b0;
  Tutil.check_bytes "superblock on disk0" b0
    (Disk.peek (List.assoc "disk0" members) 0);
  (* Logical segment i -> data disk (i mod 2), physical slot (i / 2). *)
  List.iter
    (fun seg ->
      let off = 5 in
      let b = Tutil.payload (100 + seg) bs in
      Diskset.write ds (3 + (seg * chunk) + off) b;
      let phys = 3 + (seg / 2 * chunk) + off in
      Tutil.check_bytes
        (Printf.sprintf "segment %d on disk%d slot %d" seg (seg mod 2) (seg / 2))
        b
        (Disk.peek (List.assoc (Printf.sprintf "disk%d" (seg mod 2)) members) phys);
      Tutil.check_bytes "round-trip" b (Diskset.read ds (3 + (seg * chunk) + off)))
    [ 0; 1; 2; 3 ]

(* A whole buffer as one run, and a run read back as the caller's own
   bytes. *)
let write_run ds start data =
  Diskset.write_run_sub ds start data ~off:0 ~len:(Bytes.length data)

let read_run ds start n =
  let b, off = Diskset.read_run_view ds start n in
  Bytes.sub b off (n * Diskset.block_size ds)

let test_diskset_run_split () =
  let cfg = stripe_cfg ~ndisks:2 () in
  let m = Tutil.machine ~cfg () in
  let ds = m.Tutil.disks in
  let chunk = cfg.Config.fs.Config.segment_blocks in
  let bs = Diskset.block_size ds in
  (* A run crossing a stripe boundary spans two spindles and must still
     round-trip; its tail lands at the start of disk1's first slot. *)
  let start = 3 + chunk - 2 in
  let data = Tutil.payload 9 (4 * bs) in
  write_run ds start data;
  Tutil.check_bytes "run across the stripe boundary" data (read_run ds start 4);
  Tutil.check_bytes "tail block on disk1"
    (Bytes.sub data (2 * bs) bs)
    (Disk.peek (List.assoc "disk1" (Diskset.members ds)) 3)

(* A run write keeps none of the caller's bytes, whether the run lies on
   one spindle (passed on without a copy) or is cut at a stripe
   boundary. *)
let test_diskset_run_no_aliasing () =
  List.iter
    (fun ndisks ->
      let cfg = stripe_cfg ~ndisks () in
      let m = Tutil.machine ~cfg () in
      let ds = m.Tutil.disks in
      let chunk = cfg.Config.fs.Config.segment_blocks in
      let bs = Diskset.block_size ds in
      let n = 4 in
      List.iter
        (fun (what, start) ->
          let what = Printf.sprintf "%d spindle(s), %s" ndisks what in
          let data = Tutil.payload start (n * bs) in
          let mine = Bytes.copy data in
          write_run ds start mine;
          Bytes.fill mine 0 (n * bs) 'w';
          for i = 0 to n - 1 do
            Tutil.check_bytes (what ^ ": platter ignores a later write to the buffer")
              (Bytes.sub data (i * bs) bs) (Diskset.peek ds (start + i))
          done;
          Tutil.check_bytes (what ^ ": run read back") data (read_run ds start n))
        [ ("run on one spindle", 3 + 1); ("run across a stripe boundary", 3 + chunk - 2) ])
    [ 1; 2 ]

(* Two machines built alike, to compare what two ways of making the same
   request leave behind: bytes, clock and the whole [Stats] report. *)
let twins cfg =
  let mk () =
    let clock = Clock.create () in
    let stats = Stats.create () in
    (clock, stats, Diskset.create ~route_checkpoints:true clock stats cfg)
  in
  (mk (), mk ())

let same_effects what (c1, s1, _) (c2, s2, _) =
  Alcotest.(check (float 0.0)) (what ^ ": clock") (Clock.now c1) (Clock.now c2);
  Alcotest.(check string) (what ^ ": stats")
    (Json.to_string (Stats.to_json s1))
    (Json.to_string (Stats.to_json s2))

(* Every other read fails once, so the retries are compared too. *)
let flaky () =
  let n = ref 0 in
  Some
    {
      Disk.on_write = (fun ~blkno:_ ~nblocks -> nblocks);
      on_read =
        (fun ~blkno:_ ~nblocks:_ ->
          incr n;
          !n mod 3 = 1);
    }

(* The extents of [start, start + n), by the mapping diskset.mli
   documents: each maximal stretch of blocks that lie next to each other
   on one spindle, as (spindle, physical block, length), in logical
   order. *)
let mapped_extents cfg ds start n =
  let ndisks = cfg.Config.fs.Config.ndisks in
  let log_disk = cfg.Config.fs.Config.log_disk in
  let chunk = cfg.Config.fs.Config.segment_blocks in
  let members = Diskset.members ds in
  let data_disk i =
    List.assoc (if ndisks = 1 then "disk" else Printf.sprintf "disk%d" i) members
  in
  let where blkno =
    if log_disk && (blkno = 1 || blkno = 2) then (List.assoc "disklog" members, blkno)
    else if ndisks = 1 || blkno < 3 then (data_disk 0, blkno)
    else
      let seg = (blkno - 3) / chunk and off = (blkno - 3) mod chunk in
      (data_disk (seg mod ndisks), 3 + (seg / ndisks * chunk) + off)
  in
  let rec go blkno left =
    if left = 0 then []
    else begin
      let d, phys = where blkno in
      let len = ref 1 in
      while
        !len < left
        &&
        let d', p' = where (blkno + !len) in
        d' == d && p' = phys + !len
      do
        incr len
      done;
      (d, phys, !len) :: go (blkno + !len) (left - !len)
    end
  in
  go start n

(* [read_run_view] reads the run as one [Disk.read_run] per mapped
   extent would: the same bytes, the same clock and the same stats, on
   one spindle and on two, for a run on one extent and for one cut at
   the stripe boundary, with read errors retried alike. *)
let test_read_run_view_matches_extents () =
  List.iter
    (fun ndisks ->
      let cfg = stripe_cfg ~ndisks ~log_disk:true () in
      let chunk = cfg.Config.fs.Config.segment_blocks in
      List.iter
        (fun (what, start, n) ->
          let what = Printf.sprintf "%d spindle(s), %s" ndisks what in
          let ((_, _, a) as ma), ((_, _, b) as mb) = twins cfg in
          let bs = Diskset.block_size a in
          let data = Tutil.payload start (n * bs) in
          write_run a start data;
          write_run b start data;
          Diskset.set_injector a (flaky ());
          Diskset.set_injector b (flaky ());
          let v, off = Diskset.read_run_view a start n in
          let extents =
            List.map
              (fun (d, phys, len) -> Disk.read_run d phys len)
              (mapped_extents cfg b start n)
          in
          Tutil.check_bytes (what ^ ": bytes") (Bytes.concat Bytes.empty extents)
            (Bytes.sub v off (n * bs));
          Tutil.check_bytes (what ^ ": the written run") data (Bytes.sub v off (n * bs));
          same_effects what ma mb)
        [
          ("one segment", 3 + chunk, chunk);
          ("boot region into segment 0", 0, 6);
          ("across the stripe boundary", 3 + chunk - 2, 4);
        ])
    [ 1; 2 ]

(* [write_run_sub] of a range of a larger buffer is [write_run_sub] of
   the same bytes copied out, on the platter, the clock and the stats,
   and a write the injector tears keeps the same prefix. *)
let test_write_run_sub_matches_copy () =
  List.iter
    (fun ndisks ->
      let cfg = stripe_cfg ~ndisks () in
      let chunk = cfg.Config.fs.Config.segment_blocks in
      List.iter
        (fun (what, start, n, keep) ->
          let what = Printf.sprintf "%d spindle(s), %s" ndisks what in
          let ((_, _, a) as ma), ((_, _, b) as mb) = twins cfg in
          let bs = Diskset.block_size a in
          let big = Tutil.payload start ((n + 3) * bs) in
          let tear () =
            Option.map
              (fun keep ->
                {
                  Disk.on_write = (fun ~blkno:_ ~nblocks -> min keep nblocks);
                  on_read = (fun ~blkno:_ ~nblocks:_ -> false);
                })
              keep
          in
          Diskset.set_injector a (tear ());
          Diskset.set_injector b (tear ());
          let crashed f =
            match f () with () -> false | exception Disk.Injected_crash -> true
          in
          let ca =
            crashed (fun () -> write_run a start (Bytes.sub big (2 * bs) (n * bs)))
          in
          let cb =
            crashed (fun () ->
                Diskset.write_run_sub b start big ~off:(2 * bs) ~len:(n * bs))
          in
          Alcotest.(check bool) (what ^ ": same crash") ca cb;
          Alcotest.(check bool) (what ^ ": crash as injected") (keep <> None) ca;
          for i = start - 1 to start + n do
            Tutil.check_bytes
              (Printf.sprintf "%s: block %d" what i)
              (Diskset.peek a i) (Diskset.peek b i)
          done;
          same_effects what ma mb)
        [
          ("one extent", 3 + 1, 8, None);
          ("across the stripe boundary", 3 + chunk - 2, 4, None);
          ("torn after 5 blocks", 3 + 1, 8, Some 5);
        ])
    [ 1; 2 ]

(* The extents a run is cut into follow from the stripe geometry: the
   same requests, in the same order, as issuing one [Disk.read_run] per
   maximal stretch of blocks that [locate]'s documented mapping puts
   next to each other on one spindle. *)
let prop_split_matches_mapping =
  Tutil.qtest "run extents follow the stripe mapping"
    QCheck2.Gen.(quad (int_range 1 3) bool (int_bound 400) (int_range 1 100))
    (fun (ndisks, log_disk, start, n) ->
      let cfg = stripe_cfg ~ndisks ~log_disk () in
      let ((_, _, a) as ma), ((_, _, b) as mb) = twins cfg in
      let start = start mod (Diskset.nblocks a - n) in
      ignore (Diskset.read_run_view a start n);
      List.iter
        (fun (d, phys, len) -> ignore (Disk.read_run d phys len))
        (mapped_extents cfg b start n);
      same_effects "twins" ma mb;
      true)

let test_diskset_checkpoint_routing () =
  let cfg = stripe_cfg ~ndisks:1 ~log_disk:true () in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let ds = Diskset.create ~route_checkpoints:true clock stats cfg in
  let members = Diskset.members ds in
  let bs = Diskset.block_size ds in
  let cp = Tutil.payload 11 bs in
  Diskset.write ds 1 cp;
  Tutil.check_bytes "checkpoint block on the log spindle" cp
    (Disk.peek (List.assoc "disklog" members) 1);
  let sb = Tutil.payload 12 bs in
  Diskset.write ds 0 sb;
  Tutil.check_bytes "superblock stays on the data spindle" sb
    (Disk.peek (List.assoc "disk" members) 0);
  (* Without the routing flag, checkpoints stay on the data spindle even
     when a log spindle exists (it hosts a file system of its own). *)
  let ds' = Diskset.create clock stats cfg in
  let cp' = Tutil.payload 13 bs in
  Diskset.write ds' 1 cp';
  Tutil.check_bytes "unrouted checkpoint on the data spindle" cp'
    (Disk.peek (List.assoc "disk" (Diskset.members ds')) 1)

let prop_diskset_roundtrip =
  Tutil.qtest "diskset round-trips any block"
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 20) (int_bound 5000)))
    (fun (ndisks, blknos) ->
      let cfg = stripe_cfg ~ndisks ~log_disk:(ndisks mod 2 = 0) () in
      let clock = Clock.create () in
      let stats = Stats.create () in
      let ds = Diskset.create clock stats cfg in
      let bs = Diskset.block_size ds in
      List.for_all
        (fun blkno ->
          let blkno = blkno mod Diskset.nblocks ds in
          let b = Tutil.payload blkno bs in
          Diskset.write ds blkno b;
          Bytes.equal b (Diskset.read ds blkno))
        blknos)

(* Sparse platters. A spindle stores its boot region and each
   segment-sized stripe unit as an extent of its own, allocated by the
   first write; the cases below hold it to a flat image of the whole
   device. *)

(* Eight segment slots and five spare blocks per spindle: a single
   spindle's last extent is short. *)
let sparse_cfg ndisks =
  let cfg = stripe_cfg ~ndisks () in
  { cfg with Config.disk = { cfg.Config.disk with Config.nblocks = 3 + (8 * 32) + 5 } }

(* One block API over the three devices the property drives: the raw
   [Disk] of a one-spindle set, and sets of one and two spindles. *)
type dev = {
  nblocks : int;
  write_sub : int -> bytes -> off:int -> len:int -> unit;
  poke : int -> bytes -> unit;
  view : int -> int -> bytes * int;
  run : int -> int -> bytes;
  peek : int -> bytes;
  read_async : int -> bytes;
  set_injector : Disk.injector option -> unit;
  resident : unit -> int;
}

let sparse_dev target =
  let cfg = sparse_cfg (if target = 2 then 2 else 1) in
  let m = Tutil.machine ~cfg () in
  let ds = m.Tutil.disks in
  let resident () =
    List.fold_left (fun n (_, d) -> n + Disk.resident_extents d) 0 (Diskset.members ds)
  in
  let dev =
    if target = 0 then
      let d = m.Tutil.disk in
      {
        nblocks = Disk.nblocks d;
        write_sub = Disk.write_run_sub d;
        poke = Disk.poke d;
        view = Disk.read_run_view d;
        run = Disk.read_run d;
        peek = Disk.peek d;
        read_async =
          (fun blk ->
            let b = Bytes.create (Disk.block_size d) in
            Disk.read_async d blk b;
            b);
        set_injector = Disk.set_injector d;
        resident;
      }
    else
      {
        nblocks = Diskset.nblocks ds;
        write_sub = Diskset.write_run_sub ds;
        poke = Diskset.poke ds;
        view = Diskset.read_run_view ds;
        run =
          (fun start n -> Bytes.concat Bytes.empty (List.init n (fun i -> Diskset.read ds (start + i))));
        peek = Diskset.peek ds;
        read_async =
          (fun blk ->
            let b = Bytes.create (Diskset.block_size ds) in
            Diskset.read_async ds blk b;
            b);
        set_injector = Diskset.set_injector ds;
        resident;
      }
  in
  (m, dev)

(* A block: anywhere, or within four blocks of an extent boundary (the
   end of the boot region or of a segment slot). *)
type pos = Any of int | Near of int

type op =
  | Write of pos * int * int (* start, blocks, blocks before it in the caller's buffer *)
  | Torn of pos * int * int (* start, blocks, blocks the injector keeps *)
  | Poke of pos
  | View of pos * int
  | Run of pos * int
  | Peek of pos
  | Queued of pos list

let gen_pos =
  QCheck2.Gen.(
    oneof
      [
        map (fun b -> Any b) (int_bound 10_000);
        map2 (fun seg d -> Near (3 + (seg * 32) + d)) (int_bound 16) (int_range (-4) 4);
      ])

let gen_op =
  QCheck2.Gen.(
    (* Short runs often, so that many of those placed near a boundary
       cross it by a block or two. *)
    let len = oneof [ int_range 1 6; int_range 1 40 ] in
    frequency
      [
        (3, map3 (fun p n pad -> Write (p, n, pad)) gen_pos len (int_bound 3));
        (1, map3 (fun p n keep -> Torn (p, n, keep)) gen_pos len (int_bound 40));
        (2, map (fun p -> Poke p) gen_pos);
        (2, map2 (fun p n -> View (p, n)) gen_pos len);
        (1, map2 (fun p n -> Run (p, n)) gen_pos len);
        (1, map (fun p -> Peek p) gen_pos);
        (1, map (fun ps -> Queued ps) (list_size (int_range 1 5) gen_pos));
      ])

let prop_sparse_matches_flat =
  Tutil.qtest ~count:60 "sparse platter = flat image (disk, 1- and 2-spindle sets)"
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_range 1 30) gen_op))
    (fun (target, ops) ->
      let m, dev = sparse_dev target in
      let bs = Diskset.block_size m.Tutil.disks in
      let flat = Bytes.make (dev.nblocks * bs) '\000' in
      let expect start n = Bytes.sub flat (start * bs) (n * bs) in
      let reads_alike what start n got =
        if not (Bytes.equal (expect start n) got) then
          QCheck2.Test.fail_reportf "%s of [%d, %d) differs from the flat image" what start
            (start + n)
      in
      let at = function
        | Any b -> b mod dev.nblocks
        | Near b -> max 0 (min (dev.nblocks - 1) b)
      in
      let run p n =
        let start = at p in
        (start, max 1 (min n (dev.nblocks - start)))
      in
      (* A read op must give no extent a buffer. *)
      let read what f =
        let before = dev.resident () in
        f ();
        if dev.resident () <> before then
          QCheck2.Test.fail_reportf "%s gave an extent a buffer" what
      in
      List.iteri
        (fun tag op ->
          match op with
          | Write (p, n, pad) ->
            let start, n = run p n in
            let buf = Tutil.payload tag ((pad + n + 1) * bs) in
            dev.write_sub start buf ~off:(pad * bs) ~len:(n * bs);
            Bytes.blit buf (pad * bs) flat (start * bs) (n * bs)
          | Torn (p, n, keep) ->
            let start, n = run p n in
            (* The injector admits [keep] blocks in all, across however
               many extents the set cuts the run into. *)
            let budget = ref keep in
            dev.set_injector
              (Some
                 {
                   Disk.on_write =
                     (fun ~blkno:_ ~nblocks ->
                       let k = min !budget nblocks in
                       budget := !budget - k;
                       k);
                   on_read = (fun ~blkno:_ ~nblocks:_ -> false);
                 });
            let buf = Tutil.payload tag (n * bs) in
            let crashed =
              match dev.write_sub start buf ~off:0 ~len:(n * bs) with
              | () -> false
              | exception Disk.Injected_crash -> true
            in
            dev.set_injector None;
            if crashed <> (keep < n) then
              QCheck2.Test.fail_reportf "torn write of %d blocks keeping %d: crashed=%b" n keep
                crashed;
            Bytes.blit buf 0 flat (start * bs) (min keep n * bs)
          | Poke p ->
            let blk = at p in
            let b = Tutil.payload tag bs in
            dev.poke blk b;
            Bytes.blit b 0 flat (blk * bs) bs
          | View (p, n) ->
            let start, n = run p n in
            read "read_run_view" (fun () ->
                let b, off = dev.view start n in
                reads_alike "read_run_view" start n (Bytes.sub b off (n * bs)))
          | Run (p, n) ->
            let start, n = run p n in
            read "read_run" (fun () -> reads_alike "read_run" start n (dev.run start n))
          | Peek p ->
            let blk = at p in
            read "peek" (fun () -> reads_alike "peek" blk 1 (dev.peek blk))
          | Queued ps ->
            let blks = List.map at ps in
            read "read_async" (fun () ->
                let sched = Sched.create m.Tutil.clock in
                List.iter
                  (fun blk ->
                    Sched.spawn sched (fun () ->
                        reads_alike "read_async" blk 1 (dev.read_async blk)))
                  blks;
                Sched.run sched;
                Sched.detach sched))
        ops;
      for blk = 0 to dev.nblocks - 1 do
        reads_alike "final peek" blk 1 (dev.peek blk)
      done;
      true)

(* Every kind of read, over every block of a never-written set of two
   data spindles and a log spindle, leaves every extent without a buffer
   of its own; the first write gives exactly one extent one. *)
let test_reads_allocate_nothing () =
  let cfg = stripe_cfg ~ndisks:2 ~log_disk:true () in
  let m = Tutil.machine ~cfg () in
  let ds = m.Tutil.disks in
  let chunk = cfg.Config.fs.Config.segment_blocks in
  let bs = Diskset.block_size ds in
  let members = Diskset.members ds in
  let resident () = List.map (fun (_, d) -> Disk.resident_extents d) members in
  let zeros = List.map (fun _ -> 0) members in
  let zero n = Bytes.make (n * bs) '\000' in
  let nsegs = (Diskset.nblocks ds - 3) / chunk in
  for s = 0 to nsegs - 1 do
    let b, off = Diskset.read_run_view ds (3 + (s * chunk)) chunk in
    Tutil.check_bytes "a never-written segment views as zeros" (zero chunk)
      (Bytes.sub b off (chunk * bs))
  done;
  List.iter
    (fun (start, n) -> ignore (Diskset.read_run_view ds start n))
    [ (0, 6); (3 + chunk - 2, 4); (3 + (2 * chunk) - 1, chunk + 2) ];
  for blk = 0 to Diskset.nblocks ds - 1 do
    ignore (Diskset.read ds blk);
    ignore (Diskset.peek ds blk)
  done;
  List.iter
    (fun (_, d) ->
      Tutil.check_bytes "a whole member read as one run" (zero (Disk.nblocks d))
        (Disk.read_run d 0 (Disk.nblocks d)))
    members;
  let sched = Sched.create m.Tutil.clock in
  List.iter
    (fun blk -> Sched.spawn sched (fun () -> Diskset.read_async ds blk (Bytes.create bs)))
    [ 0; 1; 5; 3 + chunk; 3 + (5 * chunk) + 7 ];
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list int)) "no read gave an extent a buffer" zeros (resident ());
  Diskset.write ds (3 + chunk + 1) (Tutil.payload 1 bs);
  Alcotest.(check (list int)) "one write, one extent (segment 1, on disk1)"
    (List.map (fun (name, _) -> if name = "disk1" then 1 else 0) members)
    (resident ())

(* A crash and a roll-forward over two striped spindles read never-written
   segments; neither those reads nor the writes after the remount leave
   a byte in the shared zero buffer. A view of a never-written segment
   keeps its zeros after that segment is written. *)
let test_zero_extent_survives_remount () =
  let cfg = stripe_cfg ~ndisks:2 () in
  let m = Tutil.machine ~cfg () in
  let ds = m.Tutil.disks in
  let chunk = cfg.Config.fs.Config.segment_blocks in
  let bs = Diskset.block_size ds in
  let fs = Lfs.format ds m.Tutil.clock m.Tutil.stats cfg in
  let v = Lfs.vfs fs in
  let a = Tutil.payload 1 (10 * bs) and b = Tutil.payload 2 (6 * bs) in
  v.Vfs.write (v.Vfs.create "/a") ~off:0 a;
  v.Vfs.sync ();
  let fd = v.Vfs.create "/b" in
  v.Vfs.sync ();
  v.Vfs.write fd ~off:0 b;
  v.Vfs.fsync fd;
  let last = 3 + ((Lfs.nsegments fs - 1) * chunk) in
  let written = Lfs.nsegments fs - Lfs.free_segments fs in
  Lfs.crash fs;
  let fs = Lfs.mount ds m.Tutil.clock m.Tutil.stats cfg in
  Alcotest.(check bool) "the fsynced partial was rolled forward" true
    (Stats.count m.Tutil.stats "lfs.rolled_partials" > 0);
  Lfs.check fs;
  let z, zoff = Diskset.read_run_view ds last chunk in
  let zero n = Bytes.make (n * bs) '\000' in
  Tutil.check_bytes "the last segment is never written" (zero chunk) (Bytes.sub z zoff (chunk * bs));
  (* Fill more segments through the file system, then write the last
     segment's first block directly. *)
  let v = Lfs.vfs fs in
  let c = Tutil.payload 3 (3 * chunk * bs) in
  v.Vfs.write (v.Vfs.create "/c") ~off:0 c;
  v.Vfs.sync ();
  Diskset.poke ds last (Tutil.payload 4 bs);
  Tutil.check_bytes "a view of a never-written extent keeps its zeros" (zero chunk)
    (Bytes.sub z zoff (chunk * bs));
  Tutil.check_bytes "the block after the poked one is still zero" (zero 1)
    (Diskset.peek ds (last + 1));
  let fresh = Lfs.nsegments fs - 2 in
  Alcotest.(check bool) "more segments written than before the crash" true
    (Lfs.nsegments fs - Lfs.free_segments fs > written);
  Tutil.check_bytes "a segment nothing wrote is still zero" (zero 1)
    (Diskset.peek ds (3 + (fresh * chunk) + 5));
  List.iter
    (fun (name, data) ->
      let fd = v.Vfs.open_file name in
      Tutil.check_bytes name data (v.Vfs.read fd ~off:0 ~len:(Bytes.length data)))
    [ ("/a", a); ("/b", b); ("/c", c) ]

let () =
  Alcotest.run "tx_disk"
    [
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_rw_roundtrip;
          Alcotest.test_case "run roundtrip" `Quick test_run_roundtrip;
          Alcotest.test_case "time charged" `Quick test_time_charged;
          Alcotest.test_case "seq vs random" `Quick
            test_sequential_cheaper_than_random;
          Alcotest.test_case "zero-seek continuation" `Quick
            test_zero_seek_continuation;
          Alcotest.test_case "seek monotone" `Quick
            test_service_time_monotone_in_distance;
          Alcotest.test_case "range checks" `Quick test_out_of_range;
          Alcotest.test_case "peek/poke" `Quick test_peek_poke_free;
          Alcotest.test_case "queued reads" `Quick test_read_async_queue;
          Alcotest.test_case "queued seek accounting" `Quick
            test_queued_seek_accounting;
        ] );
      ( "diskset",
        [
          Alcotest.test_case "single-disk passthrough" `Quick
            test_diskset_passthrough;
          Alcotest.test_case "stripe mapping" `Quick test_diskset_stripe_mapping;
          Alcotest.test_case "run split across spindles" `Quick
            test_diskset_run_split;
          Alcotest.test_case "run writes keep no aliases" `Quick
            test_diskset_run_no_aliasing;
          Alcotest.test_case "read_run_view = Disk.read_run per extent" `Quick
            test_read_run_view_matches_extents;
          Alcotest.test_case "write_run_sub of a range = of the copy" `Quick
            test_write_run_sub_matches_copy;
          prop_split_matches_mapping;
          Alcotest.test_case "checkpoint routing" `Quick
            test_diskset_checkpoint_routing;
          prop_diskset_roundtrip;
        ] );
      ( "sparse platter",
        [
          prop_sparse_matches_flat;
          Alcotest.test_case "reads allocate nothing" `Quick test_reads_allocate_nothing;
          Alcotest.test_case "zero extent survives remount" `Quick
            test_zero_extent_survives_remount;
        ] );
      ( "elevator",
        [
          Alcotest.test_case "elevator order" `Quick test_elevator_order;
          prop_elevator_is_permutation;
          prop_elevator_clook_from_head;
          prop_elevator_single_sweep;
        ] );
    ]
