(* Tests for the buffer cache: lookup/insert, LRU eviction, dirty
   writeback, pinning, and transaction-owned frames. *)

let mk ?(capacity = 4) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let cache = Cache.create clock stats Config.default.Config.cpu ~capacity in
  (clock, stats, cache)

let block c = Bytes.make 16 c

let test_insert_lookup () =
  let _, _, c = mk () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Alcotest.(check bool) "same frame on lookup" true
    (match Cache.lookup c ~file:1 ~lblock:0 with
    | Some f' -> f' == f
    | None -> false);
  Alcotest.(check bool) "miss on other key" true
    (Cache.lookup c ~file:1 ~lblock:1 = None)

(* One int keys a frame: files and blocks that share low bits stay
   apart, and a key that does not pack is refused, not aliased. *)
let test_key_range () =
  let _, _, c = mk ~capacity:8 () in
  Cache.set_writeback c (fun _ -> ());
  let top = (1 lsl 30) - 1 and last = (1 lsl 32) - 1 in
  let keys = [ (1, 0); (2, 0); (0, 1); (top, last); (0, last); (top, 0) ] in
  let frames =
    List.map (fun (file, lblock) -> Cache.insert c ~file ~lblock (block 'k')) keys
  in
  List.iter2
    (fun (file, lblock) f ->
      Alcotest.(check bool)
        (Printf.sprintf "frame of (%d, %d)" file lblock)
        true
        (match Cache.lookup c ~file ~lblock with Some f' -> f' == f | None -> false))
    keys frames;
  List.iter
    (fun (file, lblock) ->
      Alcotest.(check bool)
        (Printf.sprintf "insert (%d, %d) rejected" file lblock)
        true
        (match Cache.insert c ~file ~lblock (block 'x') with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "lookup (%d, %d) misses" file lblock)
        true
        (Cache.lookup c ~file ~lblock = None))
    [ (-1, 0); (0, -1); (top + 1, 0); (0, last + 1); (1, -1) ]

let test_lru_eviction_order () =
  let _, _, c = mk ~capacity:2 () in
  let evicted = ref [] in
  Cache.set_writeback c (fun f -> evicted := (f.Cache.file, f.Cache.lblock) :: !evicted);
  ignore (Cache.insert c ~file:1 ~lblock:0 (block 'a'));
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  (* Touch (1,0) so (1,1) becomes LRU. *)
  ignore (Cache.lookup c ~file:1 ~lblock:0);
  ignore (Cache.insert c ~file:1 ~lblock:2 (block 'c'));
  Alcotest.(check bool) "LRU victim gone" true
    (Cache.lookup c ~file:1 ~lblock:1 = None);
  Alcotest.(check bool) "recently used survives" true
    (Cache.lookup c ~file:1 ~lblock:0 <> None);
  Alcotest.(check (list (pair int int))) "clean eviction: no writeback" []
    !evicted

let test_dirty_eviction_writes_back () =
  let _, _, c = mk ~capacity:1 () in
  let written = ref [] in
  Cache.set_writeback c (fun f ->
      written := Bytes.to_string f.Cache.data :: !written);
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.mark_dirty c f;
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  Alcotest.(check (list string)) "dirty victim written back"
    [ Bytes.to_string (block 'a') ]
    !written

let test_pinned_not_evicted () =
  let _, _, c = mk ~capacity:2 () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.pin f;
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  ignore (Cache.insert c ~file:1 ~lblock:2 (block 'c'));
  Alcotest.(check bool) "pinned frame survives" true
    (Cache.lookup c ~file:1 ~lblock:0 <> None);
  Cache.unpin f;
  (* The survival check above touched the frame, so push two more blocks
     through to evict it. *)
  ignore (Cache.insert c ~file:1 ~lblock:3 (block 'd'));
  ignore (Cache.insert c ~file:1 ~lblock:4 (block 'e'));
  Alcotest.(check bool) "unpinned frame evictable" true
    (Cache.lookup c ~file:1 ~lblock:0 = None)

let test_txn_frames_protected () =
  let _, _, c = mk ~capacity:2 () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.mark_dirty c f;
  Cache.own c f 7;
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  ignore (Cache.insert c ~file:1 ~lblock:2 (block 'c'));
  Alcotest.(check bool) "txn frame survives eviction pressure" true
    (Cache.lookup c ~file:1 ~lblock:0 <> None);
  Alcotest.(check bool) "txn frame not in dirty list" true
    (Cache.dirty_frames c () = []);
  Alcotest.(check int) "txn_frames finds it" 1 (List.length (Cache.txn_frames c 7));
  Cache.release c f;
  Alcotest.(check int) "released to dirty list" 1
    (List.length (Cache.dirty_frames c ()))

let test_cache_full () =
  let _, _, c = mk ~capacity:1 () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.pin f;
  Alcotest.(check bool) "all pinned -> Cache_full" true
    (match Cache.insert c ~file:1 ~lblock:1 (block 'b') with
    | exception Cache.Cache_full -> true
    | _ -> false)

let test_dirty_frames_order () =
  let clock, _, c =
    let clock = Clock.create () in
    let stats = Stats.create () in
    (clock, stats, Cache.create clock stats Config.default.Config.cpu ~capacity:8)
  in
  Cache.set_writeback c (fun _ -> ());
  let f1 = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  let f2 = Cache.insert c ~file:1 ~lblock:1 (block 'b') in
  Clock.advance clock 1.0;
  Cache.mark_dirty c f2;
  Clock.advance clock 1.0;
  Cache.mark_dirty c f1;
  Alcotest.(check (list int)) "oldest dirtied first" [ 1; 0 ]
    (List.map (fun f -> f.Cache.lblock) (Cache.dirty_frames c ()))

let test_invalidate () =
  let _, _, c = mk () in
  Cache.set_writeback c (fun _ -> Alcotest.fail "invalidate must not write");
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.mark_dirty c f;
  Cache.invalidate c f;
  Alcotest.(check bool) "gone" true (Cache.lookup c ~file:1 ~lblock:0 = None);
  Alcotest.(check int) "resident count" 0 (Cache.resident c)

let test_file_frames () =
  let _, _, c = mk ~capacity:8 () in
  Cache.set_writeback c (fun _ -> ());
  ignore (Cache.insert c ~file:1 ~lblock:0 (block 'a'));
  ignore (Cache.insert c ~file:2 ~lblock:0 (block 'b'));
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'c'));
  Alcotest.(check int) "frames of file 1" 2 (List.length (Cache.file_frames c 1));
  Alcotest.(check int) "frames of file 2" 1 (List.length (Cache.file_frames c 2))

let test_modseq_monotone () =
  let _, _, c = mk () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  let s0 = Cache.modseq c in
  Cache.mark_dirty c f;
  let s1 = Cache.modseq c in
  Cache.mark_dirty c f;
  let s2 = Cache.modseq c in
  Alcotest.(check bool) "monotone" true (s0 < s1 && s1 < s2);
  Alcotest.(check int) "frame carries latest" s2 f.Cache.modseq

(* Regression: insert over an existing *dirty* frame used to drop it
   without invoking the writeback hook, silently losing the dirty bytes.
   The old contents must reach the backing store before the replacement
   lands. *)
let test_insert_over_dirty_writes_back () =
  let _, _, c = mk () in
  let store = Hashtbl.create 8 in
  Cache.set_writeback c (fun f ->
      Hashtbl.replace store (f.Cache.file, f.Cache.lblock)
        (Bytes.to_string f.Cache.data));
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.mark_dirty c f;
  let f' = Cache.insert c ~file:1 ~lblock:0 (block 'b') in
  Alcotest.(check string) "old dirty bytes reached the backing store"
    (Bytes.to_string (block 'a'))
    (Hashtbl.find store (1, 0));
  Alcotest.(check bool) "replacement is resident" true
    (match Cache.lookup c ~file:1 ~lblock:0 with
    | Some g -> g == f' && Bytes.to_string g.Cache.data = Bytes.to_string (block 'b')
    | None -> false);
  Alcotest.(check int) "no duplicate frames" 1 (Cache.resident c)

let test_insert_over_pinned_rejected () =
  let _, _, c = mk () in
  Cache.set_writeback c (fun _ -> ());
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.pin f;
  Alcotest.(check bool) "pinned frame cannot be replaced" true
    (match Cache.insert c ~file:1 ~lblock:0 (block 'b') with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Cache.unpin f;
  Cache.mark_dirty c f;
  Cache.own c f 3;
  Alcotest.(check bool) "txn-owned frame cannot be replaced" true
    (match Cache.insert c ~file:1 ~lblock:0 (block 'b') with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A frame re-dirtied while its writeback is in flight holds newer bytes
   than the ones on their way to disk: it must stay dirty (and get a
   second writeback) rather than be marked clean and dropped. *)
let test_redirty_during_writeback () =
  let _, _, c = mk ~capacity:1 () in
  let writes = ref 0 in
  let redirtied = ref false in
  Cache.set_writeback c (fun f ->
      incr writes;
      if not !redirtied then begin
        redirtied := true;
        Cache.mark_dirty c f
      end);
  let f = Cache.insert c ~file:1 ~lblock:0 (block 'a') in
  Cache.mark_dirty c f;
  ignore (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  Alcotest.(check int) "written back again after the re-dirty" 2 !writes;
  Alcotest.(check bool) "old frame gone" true
    (Cache.lookup c ~file:1 ~lblock:0 = None)

(* Regression for the scheduled-path race: the writeback hook can block
   on the disk and yield, letting another fiber run eviction against the
   same LRU list. The victim is pinned across the writeback, so the
   second fiber must pick a different victim, every dirty frame is
   written back exactly once, and the cyclic list stays consistent. *)
let test_evict_race_two_fibers () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let c = Cache.create clock stats Config.default.Config.cpu ~capacity:2 in
  let sched = Sched.create clock in
  let written = ref [] in
  Cache.set_writeback c (fun f ->
      (* Park the writeback: the other fiber's eviction runs meanwhile. *)
      Sched.delay sched 0.01;
      written := (f.Cache.file, f.Cache.lblock) :: !written);
  Cache.mark_dirty c (Cache.insert c ~file:1 ~lblock:0 (block 'a'));
  Cache.mark_dirty c (Cache.insert c ~file:1 ~lblock:1 (block 'b'));
  Sched.spawn sched (fun () -> ignore (Cache.insert c ~file:1 ~lblock:2 (block 'c')));
  Sched.spawn sched (fun () -> ignore (Cache.insert c ~file:1 ~lblock:3 (block 'd')));
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list (pair int int)))
    "each dirty frame written back exactly once"
    [ (1, 0); (1, 1) ]
    (List.sort compare !written);
  Alcotest.(check bool) "old frames gone" true
    (Cache.lookup c ~file:1 ~lblock:0 = None
    && Cache.lookup c ~file:1 ~lblock:1 = None);
  Alcotest.(check bool) "new frames resident" true
    (Cache.lookup c ~file:1 ~lblock:2 <> None
    && Cache.lookup c ~file:1 ~lblock:3 <> None);
  Alcotest.(check bool) "within capacity" true (Cache.resident c <= 2)

(* The frame adopts the buffer it is given: a miss allocates once, in
   the file system that read the block, not again in the cache. *)
let test_insert_adopts_buffer () =
  let _, _, c = mk () in
  Cache.set_writeback c (fun _ -> ());
  let data = block 'a' in
  let f = Cache.insert c ~file:1 ~lblock:0 data in
  Alcotest.(check bool) "frame holds the given buffer" true (f.Cache.data == data)

let prop_never_exceeds_capacity =
  Tutil.qtest "resident <= capacity"
    QCheck2.Gen.(list (pair (int_bound 3) (int_bound 10)))
    (fun keys ->
      let _, _, c = mk ~capacity:4 () in
      Cache.set_writeback c (fun _ -> ());
      List.iter
        (fun (file, lblock) -> ignore (Cache.insert c ~file ~lblock (block 'x')))
        keys;
      Cache.resident c <= 4)

(* Frame states against a small model. Random inserts (which evict
   under a capacity of 3), dirtyings, ownings, releases, cleanings and
   invalidations run on one file's six blocks; the model holds each
   resident block's state. After every step the cache must hold exactly
   the model's blocks in the model's states, list exactly the [Dirty]
   ones as dirty, call exactly those writable, and never evict, replace
   or clean an owned frame. *)
type op =
  | Insert of int
  | Mark_dirty of int
  | Own of int * int
  | Release of int
  | Mark_clean of int
  | Invalidate of int

let show_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Mark_dirty k -> Printf.sprintf "mark_dirty %d" k
  | Own (k, txn) -> Printf.sprintf "own %d %d" k txn
  | Release k -> Printf.sprintf "release %d" k
  | Mark_clean k -> Printf.sprintf "mark_clean %d" k
  | Invalidate k -> Printf.sprintf "invalidate %d" k

let prop_frame_states =
  let open QCheck2.Gen in
  let key = int_bound 5 in
  let op =
    frequency
      [
        (4, map (fun k -> Insert k) key);
        (3, map (fun k -> Mark_dirty k) key);
        (2, map2 (fun k txn -> Own (k, txn)) key (int_range 1 2));
        (2, map (fun k -> Release k) key);
        (2, map (fun k -> Mark_clean k) key);
        (1, map (fun k -> Invalidate k) key);
      ]
  in
  QCheck2.Test.make ~count:300 ~name:"frame states match the model"
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 60) op)
    (fun ops ->
      let _, _, c = mk ~capacity:3 () in
      let written = ref [] in
      Cache.set_writeback c (fun f -> written := f.Cache.lblock :: !written);
      let model = Hashtbl.create 8 in
      let frames () = Cache.file_frames c 1 in
      let frame k = List.find_opt (fun f -> f.Cache.lblock = k) (frames ()) in
      let owned k = match Hashtbl.find_opt model k with Some (Cache.Owned _) -> true | _ -> false in
      let check_gone k =
        (* A block that left the cache behind the model's back was evicted:
           it was not owned, and a dirty one was written back first. *)
        if owned k then QCheck2.Test.fail_reportf "owned block %d evicted" k;
        if Hashtbl.find model k = Cache.Dirty && not (List.mem k !written) then
          QCheck2.Test.fail_reportf "dirty block %d dropped unwritten" k;
        Hashtbl.remove model k
      in
      let step = function
        | Insert k -> (
          written := [];
          let was = Hashtbl.find_opt model k in
          match Cache.insert c ~file:1 ~lblock:k (block 'x') with
          | exception Invalid_argument _ ->
            if not (owned k) then QCheck2.Test.fail_reportf "insert %d refused" k
          | exception Cache.Cache_full ->
            if owned k then QCheck2.Test.fail_reportf "owned block %d replaced" k;
            if was <> None then check_gone k;
            if List.exists (fun f -> not (Cache.owned f)) (frames ()) then
              QCheck2.Test.fail_report "Cache_full with an unowned frame resident"
          | _ ->
            if owned k then QCheck2.Test.fail_reportf "owned block %d replaced" k;
            if was = Some Cache.Dirty && not (List.mem k !written) then
              QCheck2.Test.fail_reportf "replaced dirty block %d unwritten" k;
            Hashtbl.replace model k Cache.Clean;
            let resident = List.map (fun f -> f.Cache.lblock) (frames ()) in
            Hashtbl.fold (fun j _ acc -> j :: acc) model []
            |> List.iter (fun j -> if not (List.mem j resident) then check_gone j))
        | Mark_dirty k ->
          Option.iter
            (fun f ->
              Cache.mark_dirty c f;
              if Hashtbl.find model k = Cache.Clean then Hashtbl.replace model k Cache.Dirty)
            (frame k)
        | Own (k, txn) ->
          Option.iter
            (fun f ->
              Cache.own c f txn;
              Hashtbl.replace model k (Cache.Owned txn))
            (frame k)
        | Release k ->
          Option.iter
            (fun f ->
              Cache.release c f;
              if owned k then Hashtbl.replace model k Cache.Dirty)
            (frame k)
        | Mark_clean k ->
          Option.iter
            (fun f ->
              Cache.mark_clean c f;
              if Hashtbl.find model k = Cache.Dirty then Hashtbl.replace model k Cache.Clean)
            (frame k)
        | Invalidate k ->
          Option.iter
            (fun f ->
              Cache.invalidate c f;
              Hashtbl.remove model k)
            (frame k)
      in
      let agree () =
        let fs = frames () in
        List.length fs = Hashtbl.length model
        && List.for_all
             (fun f ->
               let st = Hashtbl.find_opt model f.Cache.lblock in
               st = Some f.Cache.state
               && Cache.writable f = (st = Some Cache.Dirty)
               && Cache.evictable f = not (Cache.owned f))
             fs
        && List.sort compare (List.map (fun f -> f.Cache.lblock) (Cache.dirty_frames c ()))
           = List.sort compare
               (Hashtbl.fold (fun k st acc -> if st = Cache.Dirty then k :: acc else acc) model [])
      in
      List.for_all
        (fun o ->
          step o;
          agree () || QCheck2.Test.fail_reportf "cache and model disagree after %s" (show_op o))
        ops)

(* Block pool ---------------------------------------------------------------

   The pool is process-wide, so each case uses a buffer size no other
   case uses: its lists start empty. A buffer taken while the one under
   test waits is dropped, not given back, so the next take that returns
   a pooled buffer can only return the one under test. *)

let pooled_is b size = Blockpool.take size == b

let test_retired_waits_for_outermost_scope () =
  let size = 101 in
  Alcotest.(check int) "no scope open" 0 (Blockpool.open_scopes ());
  let b = Blockpool.take size in
  Blockpool.scope (fun () ->
      Blockpool.scope (fun () ->
          Blockpool.retire b;
          Alcotest.(check bool) "not while both are open" false (pooled_is b size));
      Alcotest.(check bool) "not while the outer one is open" false (pooled_is b size));
  Alcotest.(check bool) "handed out once both closed" true (pooled_is b size);
  (* A raising scope closes too. *)
  let c = Blockpool.take size in
  (match Blockpool.scope (fun () -> Blockpool.retire c; raise Exit) with
  | () -> ()
  | exception Exit -> ());
  Alcotest.(check bool) "handed out after a raise" true (pooled_is c size);
  (* With no scope open a retired buffer is free at once. *)
  Blockpool.retire c;
  Alcotest.(check bool) "free at once outside any scope" true (pooled_is c size)

(* A scope of another process spans a park: the caller's quiescence
   releases nothing until it is the only scope open. *)
let test_quiesce_needs_sole_scope () =
  let size = 102 in
  let b = Blockpool.take size in
  Blockpool.scope (fun () ->
      Blockpool.retire b;
      Blockpool.scope (fun () ->
          Blockpool.quiesce ();
          Alcotest.(check bool) "not with a nested scope open" false (pooled_is b size));
      Blockpool.quiesce ();
      Alcotest.(check bool) "released when the caller's is the only one" true
        (pooled_is b size);
      (* Retired after the quiescence: waits again. *)
      Blockpool.retire b;
      Alcotest.(check bool) "a later retirement waits" false (pooled_is b size));
  Alcotest.(check bool) "until the scope closes" true (pooled_is b size);
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let c = Blockpool.take size in
  Sched.spawn sched (fun () -> Blockpool.scope (fun () -> Sched.delay sched 1.0));
  Sched.spawn sched (fun () ->
      Blockpool.scope (fun () ->
          Blockpool.retire c;
          Blockpool.quiesce ();
          Alcotest.(check bool) "not while another process's scope is open" false
            (pooled_is c size);
          Sched.delay sched 2.0;
          Blockpool.quiesce ();
          Alcotest.(check bool) "released once it closed" true (pooled_is c size)));
  Sched.run sched;
  Sched.detach sched

let test_pool_caps () =
  let size = 103 in
  let n = Blockpool.cap + 10 in
  let bufs = List.init n (fun _ -> Blockpool.take size) in
  Alcotest.(check int) "all allocated" n (Blockpool.made size);
  Blockpool.scope (fun () ->
      List.iter Blockpool.retire bufs;
      Alcotest.(check int) "retired capped" Blockpool.cap (Blockpool.retired size));
  ignore (Blockpool.take size);
  Alcotest.(check int) "reused after the scope, none allocated" n (Blockpool.made size);
  Alcotest.(check int) "free capped" (Blockpool.cap - 1) (Blockpool.free size);
  List.iter Blockpool.give bufs;
  Alcotest.(check int) "free stays capped" Blockpool.cap (Blockpool.free size);
  Alcotest.(check int) "nothing left retired" 0 (Blockpool.retired size)

(* A file-system maintenance section is a buffer scope: a frame the
   cache evicts inside [Fileops.section] keeps its buffer out of the
   pool until the section closes, whether [f] returns or raises. *)
let test_section_is_a_scope () =
  let evicted_in_section ~size leave =
    let clock, _, c = mk ~capacity:1 () in
    Cache.set_writeback c (fun _ -> ());
    let st = Fileops.state clock in
    let b = Blockpool.take size in
    ignore (Cache.insert c ~file:1 ~lblock:0 b);
    (match
       Fileops.section st (fun () ->
           ignore (Cache.insert c ~file:1 ~lblock:1 (Blockpool.take size));
           Alcotest.(check bool) "evicted" false (Cache.mem c ~file:1 ~lblock:0);
           Alcotest.(check bool) "not reused while the section is open" false
             (pooled_is b size);
           leave ())
     with
    | () -> ()
    | exception Exit -> ());
    Alcotest.(check bool) "section closed" true (Fileops.idle st);
    Alcotest.(check bool) "reused once the section closed" true (pooled_is b size)
  in
  evicted_in_section ~size:105 ignore;
  evicted_in_section ~size:106 (fun () -> raise Exit)

(* A process parked inside a scope when its scheduler crashes never
   closes the scope: buffers retired after it opened stay retired, and
   quiescence cannot release them. Run last: the abandoned scope stays
   open for the rest of the process. *)
let test_abandoned_scope_never_releases_early () =
  let size = 104 in
  let clock = Clock.create () in
  let sched = Sched.create clock in
  Sched.spawn sched (fun () -> Blockpool.scope (fun () -> Sched.delay sched 10.0));
  Sched.spawn sched (fun () ->
      Sched.delay sched 1.0;
      raise Exit);
  (match Sched.run sched with () -> () | exception Exit -> ());
  Sched.detach sched;
  Alcotest.(check int) "the abandoned scope stays open" 1 (Blockpool.open_scopes ());
  let b = Blockpool.take size in
  Blockpool.retire b;
  Alcotest.(check bool) "retired, not free" false (pooled_is b size);
  Blockpool.scope (fun () ->
      Blockpool.quiesce ();
      Alcotest.(check bool) "quiescence beside it releases nothing" false
        (pooled_is b size));
  Alcotest.(check int) "still retired" 1 (Blockpool.retired size)

let () =
  Alcotest.run "tx_buf"
    [
      ( "cache",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "insert adopts the buffer" `Quick test_insert_adopts_buffer;
          Alcotest.test_case "key range" `Quick test_key_range;
          Alcotest.test_case "LRU order" `Quick test_lru_eviction_order;
          Alcotest.test_case "dirty writeback" `Quick
            test_dirty_eviction_writes_back;
          Alcotest.test_case "pinning" `Quick test_pinned_not_evicted;
          Alcotest.test_case "txn frames" `Quick test_txn_frames_protected;
          Alcotest.test_case "cache full" `Quick test_cache_full;
          Alcotest.test_case "dirty order" `Quick test_dirty_frames_order;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "file frames" `Quick test_file_frames;
          Alcotest.test_case "modseq" `Quick test_modseq_monotone;
          Alcotest.test_case "insert over dirty writes back" `Quick
            test_insert_over_dirty_writes_back;
          Alcotest.test_case "insert over pinned rejected" `Quick
            test_insert_over_pinned_rejected;
          Alcotest.test_case "re-dirty during writeback" `Quick
            test_redirty_during_writeback;
          Alcotest.test_case "scheduled eviction race" `Quick
            test_evict_race_two_fibers;
          prop_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_frame_states;
        ] );
      ( "block pool",
        [
          Alcotest.test_case "retired waits for the outermost scope" `Quick
            test_retired_waits_for_outermost_scope;
          Alcotest.test_case "quiescence needs the sole scope" `Quick
            test_quiesce_needs_sole_scope;
          Alcotest.test_case "caps" `Quick test_pool_caps;
          Alcotest.test_case "a maintenance section is a scope" `Quick
            test_section_is_a_scope;
          Alcotest.test_case "an abandoned scope never releases early" `Quick
            test_abandoned_scope_never_releases_early;
        ] );
    ]
