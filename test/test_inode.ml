(* Focused tests for the Inode module: block-map manipulation, the
   addressing-regime boundaries (direct / single-indirect /
   double-indirect), codecs, and truncation. *)

let bs = 4096
let per = Inode.per_indirect ~block_size:bs (* 1024 *)

let mk () = Inode.create ~inum:7 ~kind:Vfs.File

(* Encode [width] bytes with [write] at a non-zero offset of a buffer
   whose other bytes are all 0xff, check that the encoder touched only
   its own range, and return that range. *)
let encoded_at ~width write =
  let off = width + 40 in
  let buf = Bytes.make (off + width + 40) '\xff' in
  write buf ~off;
  let untouched lo len =
    Bytes.for_all (fun c -> c = '\xff') (Bytes.sub buf lo len)
  in
  Alcotest.(check bool) "bytes before untouched" true (untouched 0 off);
  Alcotest.(check bool) "bytes after untouched" true (untouched (off + width) 40);
  Bytes.sub buf off width

let test_direct_addressing () =
  let ino = mk () in
  Alcotest.(check int) "empty map" 0 (Inode.nblocks ino);
  Alcotest.(check int) "hole reads 0" 0 (Inode.get_addr ino 5);
  Inode.set_addr ino ~block_size:bs 0 100;
  Inode.set_addr ino ~block_size:bs 11 111;
  Alcotest.(check int) "lblock 0" 100 (Inode.get_addr ino 0);
  Alcotest.(check int) "lblock 11" 111 (Inode.get_addr ino 11);
  Alcotest.(check int) "nblocks" 12 (Inode.nblocks ino);
  Alcotest.(check int) "no indirects yet" 0 (Inode.indirect_count ino ~block_size:bs);
  Alcotest.(check bool) "inode dirty" true ino.Inode.dirty;
  Alcotest.(check int) "no dirty indirect" 0 (Hashtbl.length ino.Inode.dirty_ind)

let test_indirect_boundaries () =
  let ino = mk () in
  (* First block beyond the direct range. *)
  Inode.set_addr ino ~block_size:bs Inode.ndirect 500;
  Alcotest.(check int) "one indirect" 1 (Inode.indirect_count ino ~block_size:bs);
  Alcotest.(check bool) "indirect 0 dirty" true (Hashtbl.mem ino.Inode.dirty_ind 0);
  Alcotest.(check bool) "no double-indirect yet" false ino.Inode.dbl_dirty;
  (* Last block of the first indirect. *)
  Inode.set_addr ino ~block_size:bs (Inode.ndirect + per - 1) 501;
  Alcotest.(check int) "still one indirect" 1 (Inode.indirect_count ino ~block_size:bs);
  (* First block of the second indirect: the double-indirect appears. *)
  Inode.set_addr ino ~block_size:bs (Inode.ndirect + per) 502;
  Alcotest.(check int) "two indirects" 2 (Inode.indirect_count ino ~block_size:bs);
  Alcotest.(check bool) "indirect 1 dirty" true (Hashtbl.mem ino.Inode.dirty_ind 1);
  Alcotest.(check bool) "double-indirect dirty" true ino.Inode.dbl_dirty

let test_inode_record_roundtrip () =
  let ino = mk () in
  ino.Inode.size <- 123_456;
  ino.Inode.mtime <- 42.5;
  ino.Inode.protected_ <- true;
  for i = 0 to 11 do
    Inode.set_addr ino ~block_size:bs i (1000 + i)
  done;
  let record = encoded_at ~width:256 (Inode.write ino) in
  let block = Bytes.make bs '\xff' in
  Bytes.blit record 0 block 512 256;
  match Inode.decode block 512 with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check int) "inum" 7 d.Inode.inum;
    Alcotest.(check int) "size" 123_456 d.Inode.size;
    Alcotest.(check (float 0.0)) "mtime" 42.5 d.Inode.mtime;
    Alcotest.(check bool) "protected" true d.Inode.protected_;
    Alcotest.(check bool) "kind" true (d.Inode.kind = Vfs.File);
    for i = 0 to 11 do
      Alcotest.(check int) "direct addr" (1000 + i) (Inode.get_addr d i)
    done;
    Alcotest.(check bool) "decoded clean" false d.Inode.dirty

let test_decode_blank_slot () =
  Alcotest.(check bool) "blank slot is None" true
    (Inode.decode (Bytes.make bs '\000') 0 = None)

let test_indirect_block_roundtrip () =
  let ino = mk () in
  (* Populate the second indirect block's range sparsely. *)
  let lo = Inode.ndirect + per in
  Inode.set_addr ino ~block_size:bs lo 7_000;
  Inode.set_addr ino ~block_size:bs (lo + 17) 7_017;
  Inode.set_addr ino ~block_size:bs (lo + per - 1) 7_999;
  let encoded = encoded_at ~width:bs (Inode.write_indirect ino ~block_size:bs 1) in
  (* Clear and rebuild from the encoded block. *)
  let fresh = mk () in
  (* Make the fresh inode's map the same size (nmap governs the range). *)
  Inode.set_addr fresh ~block_size:bs (lo + per - 1) 0;
  Inode.decode_indirect fresh ~block_size:bs 1 encoded;
  Alcotest.(check int) "first" 7_000 (Inode.get_addr fresh lo);
  Alcotest.(check int) "middle" 7_017 (Inode.get_addr fresh (lo + 17));
  Alcotest.(check int) "last" 7_999 (Inode.get_addr fresh (lo + per - 1))

let test_double_indirect_roundtrip () =
  let ino = mk () in
  Inode.set_addr ino ~block_size:bs (Inode.ndirect + (3 * per)) 1 (* 4 indirects *);
  List.iteri (fun idx a -> Inode.set_ind_addr ino idx a) [ 11; 22; 33; 44 ];
  let b = encoded_at ~width:bs (Inode.write_double ino ~block_size:bs) in
  let fresh = mk () in
  Inode.set_addr fresh ~block_size:bs (Inode.ndirect + (3 * per)) 1;
  fresh.Inode.ind_addrs <- [| 11; 0; 0; 0 |];
  Inode.decode_double fresh ~block_size:bs b;
  (* Indirect 0 lives in the inode record, not the double block. *)
  Alcotest.(check int) "ind 1" 22 fresh.Inode.ind_addrs.(1);
  Alcotest.(check int) "ind 2" 33 fresh.Inode.ind_addrs.(2);
  Alcotest.(check int) "ind 3" 44 fresh.Inode.ind_addrs.(3)

(* A file past the single-indirect range, written to a fake disk the way a
   file system does (record, indirect blocks, double-indirect block) and
   read back with [Inode.load]; [iter_block_addrs] and [contiguity] are
   checked on both copies. *)
let test_load_double_indirect () =
  let n = Inode.ndirect + (2 * per) + 40 (* three indirect blocks *) in
  let ino = mk () in
  ino.Inode.size <- n * bs;
  (* Blocks 0..99 are contiguous from 1000, the rest are strided by 2;
     logical block 500 is a hole. *)
  let addr lb = if lb < 100 then 1000 + lb else 5000 + (2 * lb) in
  for lb = 0 to n - 1 do
    if lb <> 500 then Inode.set_addr ino ~block_size:bs lb (addr lb)
  done;
  let nind = Inode.indirect_count ino ~block_size:bs in
  Alcotest.(check int) "three indirect blocks" 3 nind;
  let disk = Hashtbl.create 8 in
  for idx = 0 to nind - 1 do
    let a = 90_000 + idx in
    ino.Inode.ind_addrs.(idx) <- a;
    Hashtbl.replace disk a
      (encoded_at ~width:bs (Inode.write_indirect ino ~block_size:bs idx))
  done;
  ino.Inode.dbl_addr <- 95_000;
  Hashtbl.replace disk 95_000
    (encoded_at ~width:bs (Inode.write_double ino ~block_size:bs));
  let block = Bytes.make bs '\000' in
  Inode.write ino block ~off:256;
  let reads = ref [] in
  let read a =
    reads := a :: !reads;
    Hashtbl.find disk a
  in
  match Inode.load ~block_size:bs ~read block 256 with
  | None -> Alcotest.fail "load: slot reads as free"
  | Some d ->
    Alcotest.(check (list int)) "double-indirect read first, then indirects"
      [ 95_000; 90_000; 90_001; 90_002 ] (List.rev !reads);
    Alcotest.(check int) "nblocks" n (Inode.nblocks d);
    for lb = 0 to n - 1 do
      Alcotest.(check int) (Printf.sprintf "block %d" lb)
        (Inode.get_addr ino lb) (Inode.get_addr d lb)
    done;
    let walk i =
      let l = ref [] in
      Inode.iter_block_addrs i ~block_size:bs (fun kind k a -> l := (kind, k, a) :: !l);
      List.rev !l
    in
    let expected =
      List.init n (fun lb -> (Inode.Data_block, lb, Inode.get_addr ino lb))
      @ List.init nind (fun k -> (Inode.Indirect_block, k, 90_000 + k))
      @ [ (Inode.Double_block, 0, 95_000) ]
    in
    Alcotest.(check bool) "block walk of the original" true (walk ino = expected);
    Alcotest.(check bool) "block walk of the loaded copy" true (walk d = expected);
    (* 99 adjacent pairs among the first 100 blocks; the strided tail and
       the two pairs touching the hole are not adjacent. *)
    let pairs = n - 1 - 2 in
    Alcotest.(check (float 1e-9)) "contiguity"
      (99.0 /. float_of_int pairs) (Inode.contiguity d);
    Alcotest.(check (float 1e-9)) "contiguity of the original"
      (Inode.contiguity ino) (Inode.contiguity d)

let test_truncate_map () =
  let ino = mk () in
  for i = 0 to Inode.ndirect + per + 5 do
    Inode.set_addr ino ~block_size:bs i (10_000 + i)
  done;
  Alcotest.(check int) "two indirects" 2 (Inode.indirect_count ino ~block_size:bs);
  Inode.truncate_map ino ~block_size:bs 5;
  Alcotest.(check int) "shrunk" 5 (Inode.nblocks ino);
  Alcotest.(check int) "past cut reads 0" 0 (Inode.get_addr ino 10);
  Alcotest.(check int) "no indirects left" 0 (Inode.indirect_count ino ~block_size:bs);
  (* Regrow: old entries must not resurface. *)
  Inode.set_addr ino ~block_size:bs 9 1;
  Alcotest.(check int) "hole between stays 0" 0 (Inode.get_addr ino 7)

let prop_set_get =
  Tutil.qtest "set_addr/get_addr agree with a map model"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 3000) (int_range 1 100000)))
    (fun ops ->
      let ino = mk () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (lblock, addr) ->
          Inode.set_addr ino ~block_size:bs lblock addr;
          Hashtbl.replace model lblock addr)
        ops;
      Hashtbl.fold
        (fun lblock addr ok -> ok && Inode.get_addr ino lblock = addr)
        model true)

let () =
  Alcotest.run "inode"
    [
      ( "map",
        [
          Alcotest.test_case "direct" `Quick test_direct_addressing;
          Alcotest.test_case "indirect boundaries" `Quick test_indirect_boundaries;
          Alcotest.test_case "truncate" `Quick test_truncate_map;
          prop_set_get;
        ] );
      ( "codec",
        [
          Alcotest.test_case "record roundtrip" `Quick test_inode_record_roundtrip;
          Alcotest.test_case "blank slot" `Quick test_decode_blank_slot;
          Alcotest.test_case "indirect roundtrip" `Quick test_indirect_block_roundtrip;
          Alcotest.test_case "double-indirect roundtrip" `Quick
            test_double_indirect_roundtrip;
          Alcotest.test_case "load with double-indirect" `Quick
            test_load_double_indirect;
        ] );
    ]
