(* Tests for the LFS on-disk codecs: superblock, segment summaries, and
   checkpoint regions, including corruption detection. *)

let bs = 4096

let test_superblock_roundtrip () =
  let sb =
    {
      Layout.block_size = bs;
      nblocks = 76800;
      segment_blocks = 128;
      nsegments = 600;
      max_inodes = 32768;
    }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_superblock b sb;
  let d = Layout.read_superblock b in
  Alcotest.(check int) "block_size" sb.Layout.block_size d.Layout.block_size;
  Alcotest.(check int) "nblocks" sb.Layout.nblocks d.Layout.nblocks;
  Alcotest.(check int) "segment_blocks" sb.Layout.segment_blocks d.Layout.segment_blocks;
  Alcotest.(check int) "nsegments" sb.Layout.nsegments d.Layout.nsegments;
  Alcotest.(check int) "max_inodes" sb.Layout.max_inodes d.Layout.max_inodes

let test_superblock_corruption () =
  let sb =
    { Layout.block_size = bs; nblocks = 100; segment_blocks = 16; nsegments = 6; max_inodes = 64 }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_superblock b sb;
  Bytes.set b 12 'X';
  Alcotest.(check bool) "corrupt superblock rejected" true
    (match Layout.read_superblock b with
    | exception Vfs.Error (Vfs.Invalid, _) -> true
    | _ -> false)

let sample_entries =
  [
    Layout.Data { inum = 3; lblock = 0 };
    Layout.Data { inum = 3; lblock = 999 };
    Layout.Indirect { inum = 3; index = 2 };
    Layout.Double_indirect { inum = 3 };
    Layout.Inode_block { inums = [ 3; 9; 27 ] };
    Layout.Imap_block { index = 5 };
    Layout.Usage_block { index = 1 };
  ]

let test_summary_roundtrip () =
  let s =
    {
      Layout.seq = 123456789L;
      timestamp = 3.25;
      next_seg = 42;
      more = true;
      cold = false;
      payload_ck = 0x1234_5678;
      entries = sample_entries;
    }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_summary b s;
  match Layout.read_summary b with
  | None -> Alcotest.fail "valid summary rejected"
  | Some d ->
    Alcotest.(check int64) "seq" s.Layout.seq d.Layout.seq;
    Alcotest.(check (float 0.0)) "timestamp" s.Layout.timestamp d.Layout.timestamp;
    Alcotest.(check int) "next_seg" s.Layout.next_seg d.Layout.next_seg;
    Alcotest.(check bool) "more" true d.Layout.more;
    Alcotest.(check int) "payload_ck" s.Layout.payload_ck d.Layout.payload_ck;
    Alcotest.(check bool) "entries" true (d.Layout.entries = sample_entries)

let test_summary_rejects_garbage () =
  Alcotest.(check bool) "zeros" true (Layout.read_summary (Bytes.make bs '\000') = None);
  let s =
    {
      Layout.seq = 1L;
      timestamp = 0.0;
      next_seg = 0;
      more = false;
      cold = false;
      payload_ck = 0;
      entries = sample_entries;
    }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_summary b s;
  Bytes.set b 100 '\255';
  Alcotest.(check bool) "bit flip detected" true (Layout.read_summary b = None)

let prop_summary_roundtrip =
  let entry_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun i l -> Layout.Data { inum = i; lblock = l }) (int_bound 30000) (int_bound 100000);
          map2 (fun i x -> Layout.Indirect { inum = i; index = x }) (int_bound 30000) (int_bound 50);
          map (fun i -> Layout.Double_indirect { inum = i }) (int_bound 30000);
          map (fun l -> Layout.Inode_block { inums = l }) (list_size (int_range 1 16) (int_bound 30000));
          map (fun i -> Layout.Imap_block { index = i }) (int_bound 63);
          map (fun i -> Layout.Usage_block { index = i }) (int_bound 3);
        ])
  in
  Tutil.qtest "summary round-trip"
    QCheck2.Gen.(
      tup3 (list_size (int_range 0 80) entry_gen) (int_bound 500)
        (map Int64.of_int (int_bound 1_000_000)))
    (fun (entries, next_seg, seq) ->
      let s =
        { Layout.seq; timestamp = 1.5; next_seg; more = false; cold = false; payload_ck = 7; entries }
      in
      let b = Bytes.make bs '\000' in
      Layout.write_summary b s;
      match Layout.read_summary b with
      | Some d -> d.Layout.entries = entries && d.Layout.seq = seq
      | None -> false)

let test_checkpoint_roundtrip () =
  let cp =
    {
      Layout.cp_seq = 77L;
      cp_timestamp = 12.0;
      cur_seg = 5;
      cur_off = 17;
      cp_next_seg = 6;
      next_inum = 444;
      write_seq = 999L;
      imap_addrs = Array.init 64 (fun i -> 100 + i);
      usage_addrs = [| 7; 8 |];
    }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_checkpoint b cp;
  match Layout.read_checkpoint b with
  | None -> Alcotest.fail "valid checkpoint rejected"
  | Some d ->
    Alcotest.(check int64) "cp_seq" cp.Layout.cp_seq d.Layout.cp_seq;
    Alcotest.(check int) "cur_seg" cp.Layout.cur_seg d.Layout.cur_seg;
    Alcotest.(check int) "cur_off" cp.Layout.cur_off d.Layout.cur_off;
    Alcotest.(check int) "next_inum" cp.Layout.next_inum d.Layout.next_inum;
    Alcotest.(check int64) "write_seq" cp.Layout.write_seq d.Layout.write_seq;
    Alcotest.(check bool) "imap addrs" true (d.Layout.imap_addrs = cp.Layout.imap_addrs);
    Alcotest.(check bool) "usage addrs" true (d.Layout.usage_addrs = cp.Layout.usage_addrs)

let test_checkpoint_corruption () =
  let cp =
    {
      Layout.cp_seq = 1L;
      cp_timestamp = 0.0;
      cur_seg = 0;
      cur_off = 0;
      cp_next_seg = 1;
      next_inum = 2;
      write_seq = 1L;
      imap_addrs = [||];
      usage_addrs = [||];
    }
  in
  let b = Bytes.make bs '\000' in
  Layout.write_checkpoint b cp;
  Bytes.set b 30 '\042';
  Alcotest.(check bool) "bit flip detected" true (Layout.read_checkpoint b = None)

let test_checksum_sensitivity () =
  (* The positional weighting must catch transpositions, which a plain
     byte sum would miss. *)
  let a = Bytes.of_string "abcdef" in
  let b = Bytes.of_string "abcdfe" in
  Alcotest.(check bool) "transposition detected" true
    (Layout.checksum a <> Layout.checksum b)

let test_segment_geometry () =
  let sb =
    { Layout.block_size = bs; nblocks = 1000; segment_blocks = 64; nsegments = 15; max_inodes = 64 }
  in
  Alcotest.(check int) "nsegments_of"
    ((1000 - Layout.data_start) / 64)
    (Layout.nsegments_of ~block_size:bs ~nblocks:1000 ~segment_blocks:64);
  Alcotest.(check int) "segment 0 base" Layout.data_start (Layout.segment_base sb 0);
  Alcotest.(check int) "segment 3 base" (Layout.data_start + 192) (Layout.segment_base sb 3)

(* Checksums are on disk: [checksum_sub] must equal summing a copied
   range, and the values themselves must never move. *)
let prop_checksum_sub =
  Tutil.qtest "checksum_sub equals checksum of the copied range"
    QCheck2.Gen.(
      pair (string_size (int_range 0 3000)) (pair (int_bound 3000) (int_bound 3000)))
    (fun (s, (a, b)) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Layout.checksum_sub buf off len = Layout.checksum (Bytes.sub buf off len))

let test_checksum_pinned () =
  let small = Bytes.init 4096 (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
  (* Large enough that the unmasked sum passes 2^30. *)
  let large = Bytes.init 65536 (fun i -> Char.chr ((i * i + 3 * i) land 0xff)) in
  Alcotest.(check int) "4 KB buffer" 67151872 (Layout.checksum small);
  Alcotest.(check int) "64 KB buffer" 4096000 (Layout.checksum large);
  Alcotest.(check int) "sub range" (Layout.checksum (Bytes.sub large 4096 4096))
    (Layout.checksum_sub large 4096 4096);
  Alcotest.check_raises "range past the end" (Invalid_argument "Layout.checksum_sub")
    (fun () -> ignore (Layout.checksum_sub small 4000 97))

let () =
  Alcotest.run "layout"
    [
      ( "superblock",
        [
          Alcotest.test_case "roundtrip" `Quick test_superblock_roundtrip;
          Alcotest.test_case "corruption" `Quick test_superblock_corruption;
          Alcotest.test_case "geometry" `Quick test_segment_geometry;
        ] );
      ( "summary",
        [
          Alcotest.test_case "roundtrip" `Quick test_summary_roundtrip;
          Alcotest.test_case "garbage" `Quick test_summary_rejects_garbage;
          prop_summary_roundtrip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption" `Quick test_checkpoint_corruption;
          Alcotest.test_case "checksum" `Quick test_checksum_sensitivity;
          Alcotest.test_case "checksum values pinned" `Quick test_checksum_pinned;
          prop_checksum_sub;
        ] );
    ]
