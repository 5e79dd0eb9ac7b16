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

(* Checksums are on disk, so their values must never move. This is the
   definition, a byte at a time: the word-wide [checksum_sub], and
   [checksum] of the copied range, must agree with it on every input. *)
let reference_checksum b off len =
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc := !acc + (Char.code (Bytes.get b (off + i)) * (1 + (i land 0xff)))
  done;
  !acc land 0x3fffffff

(* Buffers past 32 KB (128 periods of 256 bytes, where the lanes must be
   flushed), runs of 0xff bytes (the largest lane increments), and
   lengths from 0 through under 256 to not a multiple of 256. *)
let prop_checksum_reference =
  Tutil.qtest "checksum_sub equals the per-byte definition"
    QCheck2.Gen.(
      tup4
        (string_size
           ~gen:(frequency [ (1, char); (1, return '\255') ])
           (int_range 0 70_000))
        (int_bound 70_000)
        (oneof [ int_bound 300; int_bound 70_000 ])
        bool)
    (fun (s, a, b, short) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let off = a mod (n + 1) in
      let len = if short then b mod 300 else b in
      let len = len mod (n - off + 1) in
      let expect = reference_checksum buf off len in
      Layout.checksum_sub buf off len = expect
      && Layout.checksum (Bytes.sub buf off len) = expect)

let test_checksum_saturated () =
  let seg = Bytes.make (512 * 1024) '\255' in
  let n = Bytes.length seg in
  Alcotest.(check int) "512 KB of 0xff" (reference_checksum seg 0 n)
    (Layout.checksum seg);
  Alcotest.(check int) "unaligned, ragged tail" (reference_checksum seg 3 (n - 10))
    (Layout.checksum_sub seg 3 (n - 10));
  Alcotest.(check int) "128 periods and a tail" (reference_checksum seg 5 ((128 * 256) + 255))
    (Layout.checksum_sub seg 5 ((128 * 256) + 255))

(* The cleaner parses summaries in place inside a segment run; that must
   read exactly what parsing a copied block reads, and leave the run as
   it was. *)
let test_summary_in_run () =
  let s =
    {
      Layout.seq = 5L;
      timestamp = 2.0;
      next_seg = 9;
      more = false;
      cold = true;
      payload_ck = 77;
      entries = sample_entries;
    }
  in
  let run = Tutil.payload 11 (4 * bs) in
  let b = Bytes.make bs '\000' in
  Layout.write_summary b s;
  Bytes.blit b 0 run (2 * bs) bs;
  let before = Bytes.copy run in
  Alcotest.(check bool) "parsed in place" true
    (Layout.read_summary_at run ~off:(2 * bs) ~block_size:bs = Some s);
  Tutil.check_bytes "run untouched" before run;
  Alcotest.(check bool) "a data block is no summary" true
    (Layout.read_summary_at run ~off:bs ~block_size:bs = None);
  Bytes.set run ((2 * bs) + 100) '\255';
  Alcotest.(check bool) "bit flip detected in place" true
    (Layout.read_summary_at run ~off:(2 * bs) ~block_size:bs = None);
  (* A sealed summary whose inode table (entry 4 of [sample_entries], at
     byte 40 + 4 * 9) points past its block must not be read from the
     next block of the run. *)
  Enc.set_u32 b 77 (bs - 4);
  Enc.set_u32 b 4 0;
  Enc.set_u32 b 4 (Layout.checksum b);
  Bytes.blit b 0 run (2 * bs) bs;
  Alcotest.(check bool) "inode table past the block rejected" true
    (match Layout.read_summary_at run ~off:(2 * bs) ~block_size:bs with
    | exception Vfs.Error (Vfs.Invalid, _) -> true
    | _ -> false)

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

(* Inode map and usage table chunks ------------------------------------------ *)

(* Encode a whole table chunk by chunk, decode it back into fresh arrays. *)
let table_roundtrip ~block_size ~n_chunks ~write ~read entries =
  let n = Array.length entries in
  let back = Array.make n None in
  for chunk = 0 to n_chunks - 1 do
    let b = Bytes.make block_size '\255' in
    write b ~off:0 ~block_size ~chunk ~n (fun i -> entries.(i));
    read b ~chunk ~n (fun i e -> back.(i) <- Some e)
  done;
  Array.for_all2 (fun e d -> d = Some e) entries back

let prop_imap_roundtrip =
  let entry =
    QCheck2.Gen.(
      map3
        (fun addr slot alloc -> { Layout.addr; slot; alloc })
        (int_bound 0x3fff_ffff) (int_bound 255) bool)
  in
  Tutil.qtest "imap chunks round-trip"
    QCheck2.Gen.(pair (oneofl [ 512; 2048; 4096 ]) (array_size (int_range 0 2000) entry))
    (fun (block_size, entries) ->
      table_roundtrip ~block_size
        ~n_chunks:(Layout.n_imap_chunks ~block_size ~max_inodes:(Array.length entries))
        ~write:Layout.write_imap_chunk ~read:Layout.read_imap_chunk entries)

let prop_usage_roundtrip =
  let entry =
    QCheck2.Gen.(
      map2
        (fun (live, cold) (mtime, last_write) -> { Layout.live; mtime; last_write; cold })
        (pair (int_bound 0xffff) bool)
        (pair (float_bound_inclusive 1e6) (float_bound_inclusive 1e6)))
  in
  Tutil.qtest "usage chunks round-trip"
    QCheck2.Gen.(pair (oneofl [ 512; 2048; 4096 ]) (array_size (int_range 0 1000) entry))
    (fun (block_size, entries) ->
      table_roundtrip ~block_size
        ~n_chunks:(Layout.n_usage_chunks ~block_size ~nsegments:(Array.length entries))
        ~write:Layout.write_usage_chunk ~read:Layout.read_usage_chunk entries)

let test_chunk_counts () =
  (* 2 048-byte blocks hold 97 usage entries: 195 segments need a third
     chunk. *)
  let usage nsegments = Layout.n_usage_chunks ~block_size:2048 ~nsegments in
  Alcotest.(check int) "194 segments" 2 (usage 194);
  Alcotest.(check int) "195 segments" 3 (usage 195);
  Alcotest.(check int) "imap at 4 KB" 64
    (Layout.n_imap_chunks ~block_size:4096 ~max_inodes:32_768)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* The on-disk format must not move: the second chunk of a 13-entry imap
   and of a 5-entry usage table in 64-byte blocks, each a partial last
   chunk, byte for byte as the encoder wrote them before Layout owned
   it. *)
let test_chunks_pinned () =
  let b = Bytes.make 64 '\255' in
  Layout.write_imap_chunk b ~off:0 ~block_size:64 ~chunk:1 ~n:13 (fun i ->
      { Layout.addr = 1_000_003 * (i + 1); slot = i mod 16; alloc = i mod 3 <> 0 });
  Alcotest.(check string) "imap chunk"
    "0089545b080100000098969e0900000000a7d8e10a01000000b71b240b01000000\
     c65d670c000000000000000000000000000000000000000000000000000000"
    (hex b);
  let b = Bytes.make 64 '\255' in
  Layout.write_usage_chunk b ~off:0 ~block_size:64 ~chunk:1 ~n:5 (fun i ->
      {
        Layout.live = (7 * i) + 1;
        mtime = 1.5 *. float_of_int i;
        last_write = 0.25 +. float_of_int i;
        cold = i mod 2 = 1;
      });
  Alcotest.(check string) "usage chunk"
    "000000164012000000000000400a000000000000010000001d40180000000000\
     0040110000000000000000000000000000000000000000000000000000000000"
    (hex b)

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
          Alcotest.test_case "parsed in place in a run" `Quick test_summary_in_run;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption" `Quick test_checkpoint_corruption;
          Alcotest.test_case "checksum" `Quick test_checksum_sensitivity;
          Alcotest.test_case "checksum values pinned" `Quick test_checksum_pinned;
          prop_checksum_reference;
          Alcotest.test_case "checksum of saturated lanes" `Quick
            test_checksum_saturated;
        ] );
      ( "tables",
        [
          Alcotest.test_case "chunk counts" `Quick test_chunk_counts;
          Alcotest.test_case "chunks pinned" `Quick test_chunks_pinned;
          prop_imap_roundtrip;
          prop_usage_roundtrip;
        ] );
    ]
