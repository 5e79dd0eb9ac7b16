(* Tests for the access methods: B+tree, recno, and hash, over both the
   plain pager and the transactional (WAL) pager. *)

let mk_plain () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/db" in
  (m, fs, v, Pager.plain v fd)

let attach_btree (m : Tutil.machine) pager =
  Btree.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'x')

(* B+tree ------------------------------------------------------------------ *)

let test_btree_basic () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  Alcotest.(check (option string)) "empty" None (Btree.find bt "a");
  Btree.insert bt "a" "1";
  Btree.insert bt "b" "2";
  Btree.insert bt "a" "updated";
  Alcotest.(check (option string)) "find a" (Some "updated") (Btree.find bt "a");
  Alcotest.(check (option string)) "find b" (Some "2") (Btree.find bt "b");
  Alcotest.(check int) "count" 2 (Btree.count bt);
  Alcotest.(check bool) "delete" true (Btree.delete bt "a");
  Alcotest.(check bool) "delete again" false (Btree.delete bt "a");
  Alcotest.(check (option string)) "gone" None (Btree.find bt "a");
  Btree.check bt

let test_btree_splits_and_height () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  Alcotest.(check int) "height 1" 1 (Btree.height bt);
  for i = 0 to 4999 do
    Btree.insert bt (key i) (value i)
  done;
  Alcotest.(check int) "all present" 5000 (Btree.count bt);
  Alcotest.(check bool) "height grew" true (Btree.height bt >= 2);
  Btree.check bt;
  for i = 0 to 4999 do
    if Btree.find bt (key i) <> Some (value i) then
      Alcotest.failf "missing %s" (key i)
  done

let test_btree_random_order_inserts () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  let rng = Rng.create ~seed:99 in
  let keys = Array.init 2000 key in
  Rng.shuffle rng keys;
  Array.iter (fun k -> Btree.insert bt k ("v" ^ k)) keys;
  Btree.check bt;
  (* Iteration is globally sorted. *)
  let prev = ref "" in
  let n = ref 0 in
  Btree.iter bt (fun k _ ->
      Alcotest.(check bool) "sorted" true (!prev < k);
      prev := k;
      incr n;
      true);
  Alcotest.(check int) "iterated all" 2000 !n

let test_btree_iter_from () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  for i = 0 to 99 do
    Btree.insert bt (key i) (string_of_int i)
  done;
  let seen = ref [] in
  Btree.iter bt ~from:(key 90) (fun k _ ->
      seen := k :: !seen;
      true);
  Alcotest.(check int) "ten from key 90" 10 (List.length !seen);
  Alcotest.(check string) "first is key90" (key 90) (List.nth (List.rev !seen) 0);
  (* Early stop. *)
  let count = ref 0 in
  Btree.iter bt (fun _ _ ->
      incr count;
      !count < 5);
  Alcotest.(check int) "stopped early" 5 !count

let test_btree_persistence () =
  let m, fs, v, pager = mk_plain () in
  let bt = attach_btree m pager in
  for i = 0 to 499 do
    Btree.insert bt (key i) (value i)
  done;
  Lfs.sync fs;
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v' = Lfs.vfs fs in
  let fd = v'.Vfs.open_file "/db" in
  ignore v;
  let bt = attach_btree m (Pager.plain v' fd) in
  Alcotest.(check int) "count preserved" 500 (Btree.count bt);
  Btree.check bt;
  for i = 0 to 499 do
    if Btree.find bt (key i) <> Some (value i) then Alcotest.failf "lost %s" (key i)
  done

let test_btree_entry_too_large () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  Alcotest.check_raises "oversized rejected" Btree.Entry_too_large (fun () ->
      Btree.insert bt "k" (String.make 4000 'x'))

let prop_btree_model =
  Tutil.qtest ~count:40 "btree matches a map model"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (pair (int_bound 50) (option (string_size ~gen:(char_range 'a' 'z') (int_bound 20)))))
    (fun ops ->
      let m, _, _, pager = mk_plain () in
      let bt = attach_btree m pager in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            Btree.insert bt k v;
            Hashtbl.replace model k v
          | None ->
            let existed = Hashtbl.mem model k in
            Hashtbl.remove model k;
            let deleted = Btree.delete bt k in
            if existed <> deleted then failwith "delete mismatch")
        ops;
      Btree.check bt;
      Hashtbl.fold (fun k v ok -> ok && Btree.find bt k = Some v) model true
      && Btree.count bt = Hashtbl.length model)

(* Iteration must deliver exactly the model's bindings in sorted key
   order — in full, from an arbitrary starting key, and as a prefix when
   the callback stops early. *)
let prop_btree_iteration =
  Tutil.qtest ~count:30 "btree iteration matches the sorted model"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150)
           (pair (int_bound 60)
              (option (string_size ~gen:(char_range 'a' 'z') (int_bound 12)))))
        (int_bound 60))
    (fun (ops, from_k) ->
      let m, _, _, pager = mk_plain () in
      let bt = attach_btree m pager in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            Btree.insert bt k v;
            Hashtbl.replace model k v
          | None ->
            Hashtbl.remove model k;
            ignore (Btree.delete bt k))
        ops;
      let expect =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      let collect ?from () =
        let seen = ref [] in
        Btree.iter bt ?from (fun k v ->
            seen := (k, v) :: !seen;
            true);
        List.rev !seen
      in
      let from = key from_k in
      let stop_after = (List.length expect + 1) / 2 in
      let prefix = ref [] and n = ref 0 in
      Btree.iter bt (fun k v ->
          prefix := (k, v) :: !prefix;
          incr n;
          !n < stop_after);
      let prefix = List.rev !prefix in
      let take n l = List.filteri (fun i _ -> i < n) l in
      collect () = expect
      && collect ~from () = List.filter (fun (k, _) -> k >= from) expect
      && prefix = take (min stop_after (List.length expect)) expect)

let test_btree_iter_from_missing_key () =
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  Btree.insert bt "b" "1";
  Btree.insert bt "d" "2";
  Btree.insert bt "f" "3";
  let from_c = ref [] in
  Btree.iter bt ~from:"c" (fun k _ -> from_c := k :: !from_c; true);
  Alcotest.(check (list string)) "starts at next key" [ "d"; "f" ]
    (List.rev !from_c);
  let from_z = ref 0 in
  Btree.iter bt ~from:"z" (fun _ _ -> incr from_z; true);
  Alcotest.(check int) "past the end: nothing" 0 !from_z

let test_btree_sequential_load_fill () =
  (* The rightmost-split optimization must keep sequentially-loaded
     leaves nearly full: 2000 records of ~24 bytes fit ~160 to a page,
     so the tree needs only a little over the minimum page count. *)
  let m, _, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  for i = 0 to 1999 do
    Btree.insert bt (key i) "v"
  done;
  Btree.check bt;
  let meta = pager.Pager.get 0 in
  let npages = Enc.get_u32 meta 8 in
  Alcotest.(check bool)
    (Printf.sprintf "compact layout (%d pages)" npages)
    true (npages < 30)

let test_btree_delete_persists () =
  let m, fs, _, pager = mk_plain () in
  let bt = attach_btree m pager in
  for i = 0 to 99 do
    Btree.insert bt (key i) (value i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then ignore (Btree.delete bt (key i))
  done;
  Lfs.sync fs;
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let bt = attach_btree m (Pager.plain v (v.Vfs.open_file "/db")) in
  Alcotest.(check int) "half remain" 50 (Btree.count bt);
  Alcotest.(check (option string)) "odd kept" (Some (value 51)) (Btree.find bt (key 51));
  Alcotest.(check (option string)) "even gone" None (Btree.find bt (key 50))

let test_hash_persistence () =
  let m, fs, _, pager = mk_plain () in
  let h = Hashdb.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager ~buckets:4 in
  for i = 0 to 199 do
    Hashdb.insert h (key i) (value i)
  done;
  Lfs.sync fs;
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let h =
    Hashdb.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu
      (Pager.plain v (v.Vfs.open_file "/db"))
      ~buckets:999 (* ignored on reopen *)
  in
  Alcotest.(check int) "count preserved" 200 (Hashdb.count h);
  for i = 0 to 199 do
    if Hashdb.find h (key i) <> Some (value i) then Alcotest.failf "lost %s" (key i)
  done

(* Transactional B-tree over the WAL pager --------------------------------- *)

let mk_wal () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  let fd = v.Vfs.create "/db" in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
      ~log_path:"/wal.log" ()
  in
  (m, fs, v, fd, env)

let test_btree_wal_commit_and_abort () =
  let m, _, _, fd, env = mk_wal () in
  (* Load under one committed transaction. *)
  let txn = Libtp.begin_txn env in
  let bt = attach_btree m (Pager.wal env txn fd) in
  for i = 0 to 199 do
    Btree.insert bt (key i) (value i)
  done;
  Libtp.commit env txn;
  (* Abort a second transaction's inserts. *)
  let txn2 = Libtp.begin_txn env in
  let bt2 = attach_btree m (Pager.wal env txn2 fd) in
  for i = 200 to 299 do
    Btree.insert bt2 (key i) (value i)
  done;
  Alcotest.(check (option string)) "visible inside txn" (Some (value 250))
    (Btree.find bt2 (key 250));
  Libtp.abort env txn2;
  (* A third transaction sees only the committed data. *)
  let txn3 = Libtp.begin_txn env in
  let bt3 = attach_btree m (Pager.wal env txn3 fd) in
  Alcotest.(check int) "count back to 200" 200 (Btree.count bt3);
  Alcotest.(check (option string)) "committed present" (Some (value 7))
    (Btree.find bt3 (key 7));
  Alcotest.(check (option string)) "aborted gone" None (Btree.find bt3 (key 250));
  Btree.check bt3;
  Libtp.commit env txn3

let test_btree_wal_crash_recovery () =
  let m, fs, _, fd, env = mk_wal () in
  let txn = Libtp.begin_txn env in
  let bt = attach_btree m (Pager.wal env txn fd) in
  for i = 0 to 99 do
    Btree.insert bt (key i) (value i)
  done;
  Libtp.commit env txn;
  (* Uncommitted second transaction, then crash. *)
  let txn2 = Libtp.begin_txn env in
  let bt2 = attach_btree m (Pager.wal env txn2 fd) in
  for i = 100 to 150 do
    Btree.insert bt2 (key i) (value i)
  done;
  Logmgr.force (Libtp.log env) ~upto:(Logmgr.next_lsn (Libtp.log env) - 1);
  Lfs.crash fs;
  let fs = Lfs.mount m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
      ~log_path:"/wal.log" ()
  in
  let fd = v.Vfs.open_file "/db" in
  let txn = Libtp.begin_txn env in
  let bt = attach_btree m (Pager.wal env txn fd) in
  Alcotest.(check int) "exactly committed records" 100 (Btree.count bt);
  Btree.check bt;
  Alcotest.(check (option string)) "committed survives" (Some (value 42))
    (Btree.find bt (key 42));
  Alcotest.(check (option string)) "loser undone" None (Btree.find bt (key 120));
  Libtp.commit env txn

(* Recno -------------------------------------------------------------------- *)

let mk_recno ?(reclen = 50) () =
  let m, _, _, pager = mk_plain () in
  (m, Recno.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager ~reclen)

let record i reclen =
  let b = Bytes.make reclen ' ' in
  let s = Printf.sprintf "record-%d" i in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let test_recno_exact_page_fill () =
  (* 4096/64 = 64 records per page exactly: the boundary record must land
     on a fresh page with no straddling. *)
  let _, r = mk_recno ~reclen:64 () in
  for i = 0 to 129 do
    ignore (Recno.append r (record i 64))
  done;
  Tutil.check_bytes "record 63 (end of page 1)" (record 63 64) (Recno.get r 63);
  Tutil.check_bytes "record 64 (start of page 2)" (record 64 64) (Recno.get r 64);
  Tutil.check_bytes "record 129" (record 129 64) (Recno.get r 129)

let test_recno_oversized_rejected () =
  let m, _, _, pager = mk_plain () in
  Alcotest.(check bool) "reclen > page rejected" true
    (match
       Recno.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager
         ~reclen:5000
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_recno_append_get () =
  let _, r = mk_recno () in
  let ids = List.init 500 (fun i -> Recno.append r (record i 50)) in
  Alcotest.(check (list int)) "sequential recnos" (List.init 500 Fun.id) ids;
  Alcotest.(check int) "count" 500 (Recno.count r);
  Tutil.check_bytes "get 250" (record 250 50) (Recno.get r 250);
  Alcotest.(check bool) "out of range" true
    (match Recno.get r 500 with exception Not_found -> true | _ -> false)

let test_recno_set_and_iter () =
  let _, r = mk_recno () in
  for i = 0 to 99 do
    ignore (Recno.append r (record i 50))
  done;
  Recno.set r 50 (record 9999 50);
  Tutil.check_bytes "updated" (record 9999 50) (Recno.get r 50);
  let n = ref 0 in
  Recno.iter r (fun recno data ->
      if recno = 50 then Tutil.check_bytes "iter sees update" (record 9999 50) data;
      incr n;
      true);
  Alcotest.(check int) "iterated all" 100 !n

let prop_recno_model =
  Tutil.qtest ~count:40 "recno matches an array model"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (oneof
           [
             map (fun i -> `Append i) (int_bound 10_000);
             map (fun (r, i) -> `Set (r, i)) (pair (int_bound 300) (int_bound 10_000));
           ]))
    (fun ops ->
      let reclen = 32 in
      let _, r = mk_recno ~reclen () in
      let model = ref [||] in
      List.iter
        (function
          | `Append i ->
            let id = Recno.append r (record i reclen) in
            if id <> Array.length !model then failwith "recno id mismatch";
            model := Array.append !model [| record i reclen |]
          | `Set (recno, i) ->
            let n = Array.length !model in
            if n > 0 then begin
              let recno = recno mod n in
              Recno.set r recno (record i reclen);
              !model.(recno) <- record i reclen
            end)
        ops;
      Array.iteri
        (fun i expect ->
          if not (Bytes.equal (Recno.get r i) expect) then failwith "get mismatch")
        !model;
      (* The iteration sequence is exactly the array, in record order. *)
      let seen = ref [] in
      Recno.iter r (fun recno data ->
          seen := (recno, Bytes.copy data) :: !seen;
          true);
      let seen = List.rev !seen in
      Recno.count r = Array.length !model
      && List.length seen = Array.length !model
      && List.for_all2
           (fun (i, d) (j, e) -> i = j && Bytes.equal d e)
           seen
           (Array.to_list (Array.mapi (fun i d -> (i, d)) !model)))

let test_recno_reclen_mismatch () =
  let m, _, _, pager = mk_plain () in
  let _ = Recno.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager ~reclen:50 in
  Alcotest.(check bool) "mismatch rejected" true
    (match
       Recno.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager ~reclen:64
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Hash --------------------------------------------------------------------- *)

let mk_hash ?(buckets = 8) () =
  let m, _, _, pager = mk_plain () in
  (m, Hashdb.attach m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager ~buckets)

let test_hash_basic () =
  let _, h = mk_hash () in
  Hashdb.insert h "alpha" "1";
  Hashdb.insert h "beta" "2";
  Hashdb.insert h "alpha" "one";
  Alcotest.(check (option string)) "replace" (Some "one") (Hashdb.find h "alpha");
  Alcotest.(check int) "count" 2 (Hashdb.count h);
  Alcotest.(check bool) "delete" true (Hashdb.delete h "beta");
  Alcotest.(check (option string)) "gone" None (Hashdb.find h "beta")

let test_hash_overflow_chains () =
  let m, h = mk_hash ~buckets:2 () in
  (* Two buckets force long chains. *)
  for i = 0 to 999 do
    Hashdb.insert h (key i) (value i)
  done;
  Alcotest.(check int) "all inserted" 1000 (Hashdb.count h);
  Alcotest.(check bool) "overflow pages created" true
    (Stats.count m.Tutil.stats "hash.overflow_pages" > 0);
  for i = 0 to 999 do
    if Hashdb.find h (key i) <> Some (value i) then Alcotest.failf "lost %s" (key i)
  done;
  let n = ref 0 in
  Hashdb.iter h (fun _ _ ->
      incr n;
      true);
  Alcotest.(check int) "iter sees all" 1000 !n

let prop_hash_model =
  Tutil.qtest ~count:40 "hash matches a map model"
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (pair (int_bound 40) (option (string_size ~gen:(char_range 'a' 'z') (int_bound 15)))))
    (fun ops ->
      let _, h = mk_hash ~buckets:4 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            Hashdb.insert h k v;
            Hashtbl.replace model k v
          | None ->
            let existed = Hashtbl.mem model k in
            Hashtbl.remove model k;
            if Hashdb.delete h k <> existed then failwith "delete mismatch")
        ops;
      Hashtbl.fold (fun k v ok -> ok && Hashdb.find h k = Some v) model true
      && Hashdb.count h = Hashtbl.length model)


(* Hash iteration has no order guarantee, but it must visit every model
   binding exactly once and nothing else. *)
let prop_hash_iteration =
  Tutil.qtest ~count:30 "hash iteration visits each binding once"
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (pair (int_bound 40)
           (option (string_size ~gen:(char_range 'a' 'z') (int_bound 15)))))
    (fun ops ->
      let _, h = mk_hash ~buckets:2 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            Hashdb.insert h k v;
            Hashtbl.replace model k v
          | None ->
            Hashtbl.remove model k;
            ignore (Hashdb.delete h k))
        ops;
      let seen = Hashtbl.create 16 in
      let dup = ref false in
      Hashdb.iter h (fun k v ->
          if Hashtbl.mem seen k then dup := true;
          Hashtbl.replace seen k v;
          true);
      (not !dup)
      && Hashtbl.length seen = Hashtbl.length model
      && Hashtbl.fold
           (fun k v acc -> acc && Hashtbl.find_opt seen k = Some v)
           model true)

(* In-place pages ----------------------------------------------------------- *)

(* An in-memory pager of small pages whose [get] returns the stored page
   itself, as a buffer pool does, and which remembers the pages written.
   With [record_grain] the access methods take their record-grain paths
   (the lock and latch hooks stay no-ops). *)
let mem_pager ~record_grain ps =
  let pages = Hashtbl.create 16 and written = ref [] in
  let get page =
    match Hashtbl.find_opt pages page with
    | Some b -> b
    | None -> Bytes.make ps '\000'
  in
  let put page data =
    Hashtbl.replace pages page (Bytes.copy data);
    written := page :: !written
  in
  ({ (Pager.nohooks ~page_size:ps get put) with Pager.record_grain }, pages, written)

(* [node] encoded into a fresh page of [ps] bytes. *)
let encode ps node =
  let b = Bytes.make ps '\255' in
  Btree.encode_node b node;
  b

(* The in-place search and edit paths must leave every page exactly as
   encoding its decoded node would, and agree with a map model, at both
   lock grains. Small pages make leaf and internal splits frequent. *)
let prop_btree_inplace_pages =
  let ps = 128 in
  Tutil.qtest ~count:60 "in-place pages re-encode byte-identically"
    QCheck2.Gen.(
      pair bool
        (list_size (int_range 1 300)
           (triple (int_bound 3) (int_bound 80)
              (pair (int_bound 17) (char_range 'a' 'z')))))
    (fun (record_grain, ops) ->
      let m = Tutil.machine () in
      let pager, pages, written = mem_pager ~record_grain ps in
      let bt = attach_btree m pager in
      let module M = Map.Make (String) in
      let model = ref M.empty in
      List.for_all
        (fun (op, k, (len, c)) ->
          let k = key k in
          (match op with
          | 0 -> ignore (Btree.find bt k)
          | 1 ->
            if Btree.delete bt k <> M.mem k !model then failwith "delete mismatch";
            model := M.remove k !model
          | _ ->
            (* op 2 keeps an existing value's size; op 3 picks any size,
               or adds a new key. *)
            let len =
              match M.find_opt k !model with
              | Some v when op = 2 -> String.length v
              | _ -> len
            in
            let v = String.make len c in
            Btree.insert bt k v;
            model := M.add k v !model);
          let canonical =
            List.for_all
              (fun page ->
                page = 0
                ||
                let b = Hashtbl.find pages page in
                Bytes.equal (encode ps (Btree.decode_node b)) b)
              !written
          in
          written := [];
          canonical && Btree.find bt k = M.find_opt k !model)
        ops
      && begin
        Btree.check bt;
        M.for_all (fun k v -> Btree.find bt k = Some v) !model
        && Btree.count bt = M.cardinal !model
      end)

(* Page search --------------------------------------------------------------- *)

(* Bytes that make close calls: the extremes, both sides of the signed
   boundary (0x7f / 0x80), and anything at all. *)
let key_char =
  QCheck2.Gen.(
    frequency
      [
        (3, oneofl [ '\000'; '\001'; 'a'; 'b'; '\127'; '\128'; '\129'; '\255' ]);
        (1, char);
      ])

(* Two keys sharing a prefix of 0-20 bytes, each at most 24 bytes long:
   keys that differ only past the first word, keys equal up to a word
   boundary, and one key a prefix of the other all come up often. *)
let key_pair =
  QCheck2.Gen.(
    let* prefix = string_size ~gen:key_char (int_range 0 20) in
    let tail = string_size ~gen:key_char (int_range 0 (24 - String.length prefix)) in
    let* a = tail and* b = tail in
    return (prefix ^ a, prefix ^ b))

let sign c = Int.compare c 0

(* The page key sits inside a larger buffer with arbitrary bytes around
   it, so a compare that reads past either key's end is caught. *)
let prop_compare_at =
  Tutil.qtest ~count:2000 "compare_at has String.compare's sign"
    QCheck2.Gen.(
      quad key_pair (string_size ~gen:char (int_range 0 9))
        (string_size ~gen:char (int_range 0 9)) bool)
    (fun ((a, b), before, after, swap) ->
      let page_key, key = if swap then (b, a) else (a, b) in
      let buf = Bytes.of_string (before ^ page_key ^ after) in
      sign (Btree.compare_at buf (String.length before) (String.length page_key) key)
      = sign (String.compare page_key key))

(* Sorted distinct keys, with probes that are the keys themselves and
   near misses of them. *)
let keys_and_probes =
  QCheck2.Gen.(
    let key = string_size ~gen:key_char (int_range 0 24) in
    let* keys = list_size (int_range 0 60) key in
    let keys = List.sort_uniq String.compare keys in
    let* extra = list_size (int_range 0 20) key in
    let* shifted =
      list_size (int_range 0 20)
        (map2 (fun k c -> k ^ String.make 1 c) (oneofl ("" :: keys)) key_char)
    in
    return (keys, keys @ extra @ shifted))

(* Sorted distinct 10-byte keys filling most of a 4 KB internal page
   (at most 255 fit), with probes equal to each key, between neighbours
   (a key extended by a byte), below the first and above the last. *)
let full_page_keys_and_probes =
  QCheck2.Gen.(
    let* n = int_range 200 255 in
    let* keys = list_repeat (n + 20) (string_size ~gen:key_char (return 10)) in
    let keys = List.filteri (fun i _ -> i < n) (List.sort_uniq String.compare keys) in
    let* ext = list_repeat (List.length keys) key_char in
    let between = List.map2 (fun k c -> k ^ String.make 1 c) keys ext in
    let first = List.hd keys and last = List.nth keys (List.length keys - 1) in
    let outside = [ ""; String.sub first 0 9; last ^ "\000"; String.make 11 '\255' ] in
    return (keys, keys @ between @ outside))

(* [child_at] against the decoded node: the child of the last item whose
   key is <= the probe, else [child0]. Pages of under 16 items take the
   linear walk, larger ones the binary search. *)
let child_at_matches (keys, probes) =
  let items = List.mapi (fun i k -> (k, 100 + i)) keys in
  let b = encode 4096 (Btree.Node { child0 = 7; items }) in
  List.for_all
    (fun probe ->
      let expected =
        List.fold_left
          (fun acc (k, c) -> if String.compare k probe <= 0 then c else acc)
          7 items
      in
      Btree.child_at b probe = expected)
    probes

let prop_child_at =
  Tutil.qtest ~count:300 "child_at matches the decoded node" keys_and_probes
    child_at_matches

let prop_child_at_full =
  Tutil.qtest ~count:100 "child_at matches the decoded node on full pages"
    full_page_keys_and_probes child_at_matches

(* [leaf_search] against the decoded leaf: entry offsets are summed from
   the decoded items, and the answer is the first key >= the probe. *)
let prop_leaf_search =
  Tutil.qtest ~count:300 "leaf_search matches the decoded leaf"
    QCheck2.Gen.(pair keys_and_probes (string_size ~gen:key_char (int_range 0 16)))
    (fun ((keys, probes), value) ->
      let items = List.map (fun k -> (k, value)) keys in
      let b = encode 4096 (Btree.Leaf { next = 0; items }) in
      List.for_all
        (fun probe ->
          let rec reference off = function
            | [] -> -1 - off
            | (k, v) :: rest ->
              let c = String.compare k probe in
              if c = 0 then off
              else if c > 0 then -1 - off
              else reference (off + 4 + String.length k + String.length v) rest
          in
          Btree.leaf_search b probe = reference 7 items)
        probes)

(* Wrap [p] so every buffer [get] hands out is fingerprinted; the next
   [put], [put_sys] or [end_op] (or an explicit [verify]) fails if any of
   them changed: callers must copy a page before editing it. With
   [each_get] the next [get] checks them too. *)
let aliasing_guard ?(each_get = false) (p : Pager.t) =
  let seen = ref [] in
  let verify () =
    List.iter
      (fun (page, b, d) ->
        if not (Digest.equal (Digest.bytes b) d) then
          Alcotest.failf "page %d returned by get was modified in place" page)
      !seen;
    seen := []
  in
  let guarded =
    {
      p with
      Pager.get =
        (fun page ->
          if each_get then verify ();
          let b = p.Pager.get page in
          seen := (page, b, Digest.bytes b) :: !seen;
          b);
      put =
        (fun page data ->
          verify ();
          p.Pager.put page data);
      put_sys =
        (fun page data ->
          verify ();
          p.Pager.put_sys page data);
      end_op =
        (fun () ->
          verify ();
          p.Pager.end_op ());
    }
  in
  (guarded, verify)

(* Every access method, through guarded pagers from [pager_for name]. *)
let exercise_access_methods (m : Tutil.machine) pager_for =
  let clock = m.Tutil.clock and stats = m.Tutil.stats and cpu = m.Tutil.cfg.Config.cpu in
  let bt = Btree.attach clock stats cpu (pager_for "/bt") in
  for i = 0 to 299 do
    Btree.insert bt (key i) (value i)
  done;
  for i = 0 to 299 do
    if i mod 3 = 0 then Btree.insert bt (key i) (String.uppercase_ascii (value i));
    if i mod 5 = 1 then Btree.insert bt (key i) (value (i + 1));
    if i mod 7 = 2 then ignore (Btree.delete bt (key i))
  done;
  Alcotest.(check (option string))
    "same-size update" (Some (String.uppercase_ascii (value 3))) (Btree.find bt (key 3));
  Alcotest.(check (option string))
    "resized value" (Some (value 7)) (Btree.find bt (key 6));
  Alcotest.(check (option string)) "deleted" None (Btree.find bt (key 9));
  Btree.iter bt (fun _ _ -> true);
  Btree.check bt;
  let r = Recno.attach clock stats cpu (pager_for "/rn") ~reclen:50 in
  for i = 0 to 199 do
    ignore (Recno.append r (record i 50))
  done;
  Recno.set r 7 (record 9999 50);
  Tutil.check_bytes "recno set" (record 9999 50) (Recno.get r 7);
  Recno.iter r (fun _ _ -> true);
  let h = Hashdb.attach clock stats cpu (pager_for "/h") ~buckets:2 in
  for i = 0 to 199 do
    Hashdb.insert h (key i) (value i)
  done;
  Alcotest.(check bool) "hash delete" true (Hashdb.delete h (key 5));
  Alcotest.(check (option string)) "hash find" (Some (value 6)) (Hashdb.find h (key 6));
  Hashdb.iter h (fun _ _ -> true)

(* [exercise_access_methods] through guarded pagers from [open_pager];
   the final [verify] covers views read after the last write. *)
let run_guarded m open_pager =
  let verifies = ref [] in
  exercise_access_methods m (fun name ->
      let p, verify = aliasing_guard (open_pager name) in
      verifies := verify :: !verifies;
      p);
  List.iter (fun verify -> verify ()) !verifies

let guarded_plain () =
  let m, fs = Tutil.fresh_lfs () in
  let v = Lfs.vfs fs in
  run_guarded m (fun name -> Pager.plain v (v.Vfs.create name))

let guarded_wal grain () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.fs = { cfg.Config.fs with Config.lock_grain = grain } } in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
      ~log_path:"/wal.log" ()
  in
  let txn = Libtp.begin_txn env in
  run_guarded m (fun name -> Pager.wal env txn (v.Vfs.create name));
  Libtp.commit env txn

(* [put] copies the page before it returns: once the caller reuses its
   buffer, [get] still returns the bytes that were put. The access
   methods build every page in a pooled buffer ([Pager.lend]) and rely
   on this. *)
let check_put_copies (p : Pager.t) =
  let ps = p.Pager.page_size in
  List.iter
    (fun page ->
      let buf = Tutil.payload page ps in
      let put = Bytes.copy buf in
      p.Pager.put page buf;
      Bytes.fill buf 0 ps 'Z';
      Tutil.check_bytes (Printf.sprintf "page %d" page) put (p.Pager.get page))
    [ 0; 1; 2 ]

let put_copies_plain () =
  let _, _, _, pager = mk_plain () in
  check_put_copies pager

let put_copies_wal grain () =
  let cfg = Tutil.small_config () in
  let cfg = { cfg with Config.fs = { cfg.Config.fs with Config.lock_grain = grain } } in
  let m, fs = Tutil.fresh_lfs ~cfg () in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:64
      ~log_path:"/wal.log" ()
  in
  let txn = Libtp.begin_txn env in
  check_put_copies (Pager.wal env txn (v.Vfs.create "/db"));
  Libtp.commit env txn

let put_copies_kernel () =
  let sys = Core.boot ~config:(Tutil.small_config ()) () in
  let v = Lfs.vfs sys.Core.lfs in
  ignore (v.Vfs.create "/db");
  Ktxn.protect sys.Core.ktxn "/db";
  let inum = Lfs.inum_of sys.Core.lfs "/db" in
  let k = sys.Core.ktxn in
  let txn = Ktxn.txn_begin k in
  check_put_copies (Ktxn.pager k txn ~inum);
  Ktxn.txn_commit k txn

(* Pooled page buffers -------------------------------------------------------- *)

(* A pager whose [get] and [put] must never run: for lending alone. *)
let lend_only ps =
  Pager.nohooks ~page_size:ps
    (fun _ -> Alcotest.fail "get")
    (fun _ _ -> Alcotest.fail "put")

(* Two kernel-pager transactions share file /b. A holds /b's meta and
   root leaf shared, so B's insert parks inside [put] on the leaf's
   exclusive lock with its built page in a borrowed buffer. Meanwhile A
   builds and writes /a's leaf and meta; when A commits, B's [put]
   copies its buffer. With one shared buffer, B would write A's last
   page into /b. *)
let pool_parked_put_keeps_bytes () =
  let sys = Core.boot ~config:(Tutil.small_config ()) () in
  let v = Lfs.vfs sys.Core.lfs in
  let k = sys.Core.ktxn and clock = sys.Core.clock and stats = sys.Core.stats in
  let cpu = sys.Core.config.Config.cpu in
  let inum path =
    ignore (v.Vfs.create path);
    Ktxn.protect k path;
    Lfs.inum_of sys.Core.lfs path
  in
  let a = inum "/a" and b = inum "/b" in
  let tree txn inum = Btree.attach clock stats cpu (Ktxn.pager k txn ~inum) in
  let t0 = Ktxn.txn_begin k in
  ignore (tree t0 a);
  ignore (tree t0 b);
  Ktxn.txn_commit k t0;
  let sched = Sched.create clock in
  Sched.spawn sched (fun () ->
      let ta = Ktxn.txn_begin k in
      ignore (Btree.find (tree ta b) "kb");
      Sched.delay sched 0.001;
      Btree.insert (tree ta a) "ka" "va";
      Ktxn.txn_commit k ta);
  Sched.spawn sched (fun () ->
      let tb = Ktxn.txn_begin k in
      Btree.insert (tree tb b) "kb" "vb";
      Ktxn.txn_commit k tb);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check bool) "B parked on a page lock" true
    (Stats.count stats "ktxn.lock_blocks" >= 1);
  let t = Ktxn.txn_begin k in
  let ta = tree t a and tb = tree t b in
  Alcotest.(check (option string)) "A's key" (Some "va") (Btree.find ta "ka");
  Alcotest.(check (option string)) "B's key" (Some "vb") (Btree.find tb "kb");
  Btree.check ta;
  Btree.check tb;
  Ktxn.txn_commit k t

(* 200 TPC-B transactions at MPL 1 build one page at a time, so the pool
   needs one 4 KB buffer in all. The groups before this one build one
   page at a time too. *)
let pool_stays_small () =
  let ps = Config.default.Config.disk.Config.block_size in
  let before = Pager.pooled ~page_size:ps in
  List.iter
    (fun (grain, stack) ->
      let c = Config.scaled ~factor:0.2 Config.default in
      let config = { c with Config.fs = { c.Config.fs with Config.lock_grain = grain } } in
      let run =
        Expcommon.run_tpcb ~config
          ~scale:{ Tpcb.accounts = 2_000; tellers = 40; branches = 40 }
          ~txns:200 ~seed:1 ~mpl:1 stack
      in
      Alcotest.(check int) "commits" 200 run.Expcommon.result.Tpcb.txns;
      Alcotest.(check bool)
        (Printf.sprintf "%s: pool holds %d buffers" (Txstack.name stack)
           (Pager.pooled ~page_size:ps))
        true
        (Pager.pooled ~page_size:ps <= max 1 before))
    [ (`Page, Txstack.Lfs_user); (`Record, Txstack.Lfs_user); (`Page, Txstack.Lfs_kernel) ]

let pool_takes_back_every_buffer () =
  let p = lend_only 1000 in
  (* Every build here declines to write: it never calls [put]. *)
  let first = Pager.lend p Fun.id in
  Alcotest.(check bool) "same buffer after a decline" true (Pager.lend p (fun b -> b == first));
  (match Pager.lend p (fun _ -> raise Exit) with () -> () | exception Exit -> ());
  Alcotest.(check bool) "same buffer after a raise" true (Pager.lend p (fun b -> b == first));
  Alcotest.(check int) "one allocated" 1 (Pager.pooled ~page_size:1000);
  let nested () = Pager.lend p (fun b1 -> Pager.lend p (fun b2 -> b1 != b2)) in
  Alcotest.(check bool) "nested builds get two buffers" true (nested ());
  Alcotest.(check bool) "and again" true (nested ());
  Alcotest.(check int) "two allocated" 2 (Pager.pooled ~page_size:1000)

let pool_keeps_sizes_apart () =
  let small = lend_only 512 and large = lend_only 2048 in
  Pager.lend large ignore;
  Alcotest.(check int) "small page" 512 (Pager.lend small Bytes.length);
  Alcotest.(check int) "small inside large" 512
    (Pager.lend large (fun _ -> Pager.lend small Bytes.length));
  Alcotest.(check int) "large inside small" 2048
    (Pager.lend small (fun _ -> Pager.lend large Bytes.length));
  Alcotest.(check (pair int int)) "one buffer per size" (1, 1)
    (Pager.pooled ~page_size:512, Pager.pooled ~page_size:2048)

(* Recycled frame buffers ------------------------------------------------------

   A cache of about eight frames makes nearly every [get] miss, and a
   miss reads into a buffer a dropped frame retired (blockpool.mli).
   Inserts that split pages, updates, deletes and scans run through the
   plain, kernel and WAL pagers, inline and at MPL 4 under [Sched], each
   process on a file of its own. Every view [get] returns is
   fingerprinted and must be unchanged at the op's next [put] and at
   its end; the trees must equal a map model. An op whose views were
   recycled early reads another page's bytes: a split decodes its
   parent's view after the child's gets, so the tree or the model
   breaks. *)

type rop = Ins of int * int | Del of int | Scan

let show_rop = function
  | Ins (k, n) -> Printf.sprintf "ins %d (%d B)" k n
  | Del k -> Printf.sprintf "del %d" k
  | Scan -> "scan"

let rop_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map2 (fun k n -> Ins (k, n)) (int_bound 299) (oneofl [ 1; 40; 120; 300; 700 ]) );
        (2, map (fun k -> Del k) (int_bound 299));
        (1, pure Scan);
      ])

let rkey k = Printf.sprintf "k%05d" k
let rvalue k n tag = String.init n (fun i -> Char.chr (97 + ((k + i + tag) mod 26)))

module Smap = Map.Make (String)

type rstack = Rplain | Rkernel of [ `Page | `Record ] | Rwal of [ `Page | `Record ]

let show_rstack = function
  | Rplain -> "plain"
  | Rkernel `Page -> "kernel, page grain"
  | Rkernel `Record -> "kernel, record grain"
  | Rwal `Page -> "wal, page grain"
  | Rwal `Record -> "wal, record grain"

(* A machine with [nfiles] files under [stack], and [txn i f], which
   runs [f] on a pager of file [i] inside a transaction. *)
let recycling_stack stack ~frames ~nfiles =
  let cfg = Tutil.small_config () in
  let grain = match stack with Rplain -> `Page | Rkernel g | Rwal g -> g in
  let cfg =
    { cfg with Config.fs = { cfg.Config.fs with Config.cache_blocks = frames; lock_grain = grain } }
  in
  let name i = Printf.sprintf "/t%d" i in
  match stack with
  | Rplain ->
    let m, fs = Tutil.fresh_lfs ~cfg () in
    let v = Lfs.vfs fs in
    let fds = Array.init nfiles (fun i -> v.Vfs.create (name i)) in
    (m.Tutil.clock, m.Tutil.stats, fun i f -> f (Pager.plain v fds.(i)))
  | Rkernel _ ->
    let sys = Core.boot ~config:cfg () in
    let v = Lfs.vfs sys.Core.lfs and k = sys.Core.ktxn in
    let inums =
      Array.init nfiles (fun i ->
          ignore (v.Vfs.create (name i));
          Ktxn.protect k (name i);
          Lfs.inum_of sys.Core.lfs (name i))
    in
    ( sys.Core.clock,
      sys.Core.stats,
      fun i f ->
        let txn = Ktxn.txn_begin k in
        f (Ktxn.pager k txn ~inum:inums.(i));
        Ktxn.txn_commit k txn )
  | Rwal _ ->
    let m, fs = Tutil.fresh_lfs ~cfg () in
    let v = Lfs.vfs fs in
    let env =
      Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:frames
        ~log_path:"/wal.log" ()
    in
    let fds = Array.init nfiles (fun i -> v.Vfs.create (name i)) in
    ( m.Tutil.clock,
      m.Tutil.stats,
      fun i f ->
        let txn = Libtp.begin_txn env in
        f (Pager.wal env txn fds.(i));
        Libtp.commit env txn )

let run_recycling stack ~mpl ops =
  (* The kernel pager keeps each transaction's frames until its commit:
     at MPL 4 the cache must hold four transactions' splits at once. *)
  let frames = match stack with Rkernel _ when mpl > 1 -> 32 | _ -> 8 in
  let clock, stats, txn = recycling_stack stack ~frames ~nfiles:mpl in
  let cpu = Config.default.Config.cpu in
  let models = Array.make mpl Smap.empty in
  (* A scan declares each leaf's view dead once it is decoded
     ([Btree.iter] quiesces), so its views are checked up to the next
     [get] only. *)
  let on_tree ?(each_get = false) i f =
    txn i (fun p ->
        let p, verify = aliasing_guard ~each_get p in
        let bt = Btree.attach clock stats cpu p in
        verify ();
        f bt;
        verify ())
  in
  let scan i bt =
    let got = ref [] in
    Btree.iter bt (fun k v ->
        got := (k, v) :: !got;
        true);
    if List.rev !got <> Smap.bindings models.(i) then
      failwith (Printf.sprintf "file %d: the scan disagrees with the model" i)
  in
  let step i tag = function
    | Ins (k, n) ->
      let v = rvalue k n tag in
      on_tree i (fun bt -> Btree.insert bt (rkey k) v);
      models.(i) <- Smap.add (rkey k) v models.(i)
    | Del k ->
      let found = ref false in
      on_tree i (fun bt -> found := Btree.delete bt (rkey k));
      let found = !found in
      if found <> Smap.mem (rkey k) models.(i) then
        failwith (Printf.sprintf "file %d: delete %d found %b" i k found);
      models.(i) <- Smap.remove (rkey k) models.(i)
    | Scan -> on_tree ~each_get:true i (scan i)
  in
  (* Start each tree at about 20 pages, more than the cache holds. *)
  for i = 0 to mpl - 1 do
    for k = 0 to 99 do
      step i (-1) (Ins (3 * k, 600))
    done
  done;
  let worker i () =
    List.iteri (fun tag op -> if tag mod mpl = i then step i tag op) ops
  in
  if mpl = 1 then worker 0 ()
  else begin
    let sched = Sched.create clock in
    for i = 0 to mpl - 1 do
      Sched.spawn sched (worker i)
    done;
    Fun.protect ~finally:(fun () -> Sched.detach sched) (fun () -> Sched.run sched)
  end;
  for i = 0 to mpl - 1 do
    (* [check] ends with a quiescing scan too. *)
    on_tree ~each_get:true i Btree.check;
    Smap.iter
      (fun k v ->
        on_tree i (fun bt ->
            if Btree.find bt k <> Some v then
              failwith (Printf.sprintf "file %d: %s lost or stale" i k)))
      models.(i);
    on_tree ~each_get:true i (scan i)
  done

(* At MPL 4 a flush that waits for the writer mutex can find a frame it
   gathered written by another flush and evicted, and the page read
   back, changed and flushed since. Logging the dropped frame pointed
   the inode back at its old bytes: each of these op lists lost records
   under the plain pager on an 8-frame cache until [write_partial]
   skipped dropped frames. *)
let dropped_frames_not_logged () =
  let gen = QCheck2.Gen.(list_size (int_range 40 160) rop_gen) in
  List.iter
    (fun seed ->
      run_recycling Rplain ~mpl:4
        (QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen))
    [ 23; 105; 122 ]

let prop_recycled_buffers =
  let full = Sys.getenv_opt "FAULTSIM_FULL" <> None in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:(if full then 100 else 10)
       ~name:"ops on recycled buffers match the model"
       ~print:(fun ops -> String.concat "; " (List.map show_rop ops))
       QCheck2.Gen.(list_size (int_range 40 160) rop_gen)
  @@ fun ops ->
      List.for_all
        (fun stack ->
          List.for_all
            (fun mpl ->
              match run_recycling stack ~mpl ops with
              | () -> true
              | exception e ->
                QCheck2.Test.fail_reportf "%s at MPL %d: %s" (show_rstack stack) mpl
                  (Printexc.to_string e))
            [ 1; 4 ])
        [ Rplain; Rkernel `Page; Rkernel `Record; Rwal `Page; Rwal `Record ]

(* db(3)-style unified facade ---------------------------------------------- *)

let mk_db kind =
  let m, _, _, pager = mk_plain () in
  (m, Db.opendb m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager kind)

let test_db_facade_btree () =
  let _, db = mk_db Db.Btree_db in
  Db.put db "beta" "2";
  Db.put db "alpha" "1";
  Alcotest.(check (option string)) "get" (Some "1") (Db.get db "alpha");
  Alcotest.(check int) "count" 2 (Db.count db);
  let keys = ref [] in
  Db.seq db (fun k _ -> keys := k :: !keys; true);
  Alcotest.(check (list string)) "sorted scan" [ "alpha"; "beta" ] (List.rev !keys);
  Alcotest.(check bool) "del" true (Db.del db "alpha");
  Alcotest.(check (option string)) "gone" None (Db.get db "alpha")

let test_db_facade_hash () =
  let _, db = mk_db (Db.Hash_db 4) in
  for i = 0 to 49 do
    Db.put db (key i) (value i)
  done;
  Alcotest.(check int) "count" 50 (Db.count db);
  Alcotest.(check (option string)) "get" (Some (value 7)) (Db.get db (key 7));
  let n = ref 0 in
  Db.seq db (fun _ _ -> incr n; true);
  Alcotest.(check int) "scan sees all" 50 !n

let test_db_facade_recno () =
  let _, db = mk_db (Db.Recno_db 32) in
  let rec32 s = s ^ String.make (32 - String.length s) ' ' in
  Db.put db "0" (rec32 "first");
  Db.put db "1" (rec32 "second");
  Db.put db "0" (rec32 "FIRST");
  Alcotest.(check (option string)) "overwrite" (Some (rec32 "FIRST")) (Db.get db "0");
  Alcotest.(check (option string)) "missing" None (Db.get db "9");
  Alcotest.(check bool) "bad key rejected" true
    (match Db.get db "not-a-number" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "del unsupported" true
    (match Db.del db "0" with exception Invalid_argument _ -> true | _ -> false);
  let seen = ref [] in
  Db.seq db (fun k v -> seen := (k, v) :: !seen; true);
  Alcotest.(check int) "scan" 2 (List.length !seen)

let test_db_facade_kind_mismatch () =
  let m, _, v, pager = mk_plain () in
  let _ = Db.opendb m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager Db.Btree_db in
  ignore v;
  Alcotest.(check bool) "hash over btree rejected" true
    (match
       Db.opendb m.Tutil.clock m.Tutil.stats m.Tutil.cfg.Config.cpu pager (Db.Hash_db 2)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "tx_db"
    [
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "splits/height" `Quick test_btree_splits_and_height;
          Alcotest.test_case "random order" `Quick test_btree_random_order_inserts;
          Alcotest.test_case "iter from" `Quick test_btree_iter_from;
          Alcotest.test_case "persistence" `Quick test_btree_persistence;
          Alcotest.test_case "entry too large" `Quick test_btree_entry_too_large;
          Alcotest.test_case "iter from missing key" `Quick
            test_btree_iter_from_missing_key;
          Alcotest.test_case "sequential fill" `Quick test_btree_sequential_load_fill;
          Alcotest.test_case "delete persists" `Quick test_btree_delete_persists;
          prop_btree_model;
          prop_btree_iteration;
        ] );
      ( "btree-wal",
        [
          Alcotest.test_case "commit/abort" `Quick test_btree_wal_commit_and_abort;
          Alcotest.test_case "crash recovery" `Quick test_btree_wal_crash_recovery;
        ] );
      ( "recno",
        [
          Alcotest.test_case "append/get" `Quick test_recno_append_get;
          Alcotest.test_case "set/iter" `Quick test_recno_set_and_iter;
          Alcotest.test_case "reclen mismatch" `Quick test_recno_reclen_mismatch;
          Alcotest.test_case "exact page fill" `Quick test_recno_exact_page_fill;
          Alcotest.test_case "oversized reclen" `Quick test_recno_oversized_rejected;
          prop_recno_model;
        ] );
      ( "db-facade",
        [
          Alcotest.test_case "btree" `Quick test_db_facade_btree;
          Alcotest.test_case "hash" `Quick test_db_facade_hash;
          Alcotest.test_case "recno" `Quick test_db_facade_recno;
          Alcotest.test_case "kind mismatch" `Quick test_db_facade_kind_mismatch;
        ] );
      ( "hash",
        [
          Alcotest.test_case "basic" `Quick test_hash_basic;
          Alcotest.test_case "overflow chains" `Quick test_hash_overflow_chains;
          Alcotest.test_case "persistence" `Quick test_hash_persistence;
          prop_hash_model;
          prop_hash_iteration;
        ] );
      ( "page search",
        [ prop_compare_at; prop_child_at; prop_child_at_full; prop_leaf_search ] );
      ( "in-place pages",
        [
          prop_btree_inplace_pages;
          Alcotest.test_case "plain pager views unmodified" `Quick guarded_plain;
          Alcotest.test_case "wal page-grain views unmodified" `Quick
            (guarded_wal `Page);
          Alcotest.test_case "wal record-grain views unmodified" `Quick
            (guarded_wal `Record);
        ] );
      ( "put copies",
        [
          Alcotest.test_case "plain pager" `Quick put_copies_plain;
          Alcotest.test_case "wal pager, page grain" `Quick (put_copies_wal `Page);
          Alcotest.test_case "wal pager, record grain" `Quick (put_copies_wal `Record);
          Alcotest.test_case "kernel pager" `Quick put_copies_kernel;
        ] );
      ( "pooled page buffers",
        [
          Alcotest.test_case "200 TPC-B transactions at MPL 1 need one buffer" `Quick
            pool_stays_small;
          Alcotest.test_case "a parked put keeps its page" `Quick
            pool_parked_put_keeps_bytes;
          Alcotest.test_case "declined and raising builds return the buffer" `Quick
            pool_takes_back_every_buffer;
          Alcotest.test_case "page sizes never mix" `Quick pool_keeps_sizes_apart;
        ] );
      ( "recycled frame buffers",
        [
          prop_recycled_buffers;
          Alcotest.test_case "a dropped frame is never logged" `Quick
            dropped_frames_not_logged;
        ] );
    ]
