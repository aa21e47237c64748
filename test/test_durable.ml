(* Unit tests: the durable-record layer shared by every on-disk store —
   the CRC-32 itself, the framed record round trip, and a fuzzer that
   damages a record of each store (cache entry, sweep wave, daemon
   intent) and requires the store to notice. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let overwrite path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The CRC-32 itself: the classic IEEE 802.3 check vector, and strict
   hex parsing. *)
let test_crc32_vector () =
  let module C = Durable.Crc32 in
  check string_t "crc32(\"123456789\")" "cbf43926"
    (C.to_hex (C.digest "123456789"));
  check bool_t "of_hex round-trips" true
    (C.of_hex "cbf43926" = Some (C.digest "123456789"));
  check bool_t "of_hex rejects short" true (C.of_hex "cbf4392" = None);
  check bool_t "of_hex rejects uppercase" true (C.of_hex "CBF43926" = None);
  check bool_t "of_hex rejects non-hex" true (C.of_hex "cbf4392g" = None)

let test_record_roundtrip () =
  Durable.with_temp_dir ~prefix:"fxdurable-test" @@ fun dir ->
  let path = Filename.concat dir "r.rec" in
  let payload = "line one\nline two\000\255" in
  Durable.write ~magic:"fxtest1" path payload;
  check bool_t "payload read back verbatim" true
    (Durable.read ~magic:"fxtest1" path = Some payload);
  check bool_t "another magic is not this record" true
    (Durable.read ~magic:"fxtest2" path = None);
  check bool_t "a missing file reads as None" true
    (Durable.read ~magic:"fxtest1" (Filename.concat dir "absent") = None);
  check bool_t "no temp file left" true
    (Durable.scan ~suffix:".tmp" dir = []);
  check bool_t "scan finds it by stem" true
    (Durable.scan ~suffix:".rec" dir = [ ("r", path) ])

(* The scratch directory is fresh, and removed with its contents when
   the caller returns or raises. *)
let test_temp_dir_removed () =
  let fill dir =
    Durable.mkdir_p (Filename.concat dir "a/b");
    overwrite (Filename.concat dir "a/b/f") "x";
    dir
  in
  let d1 = Durable.with_temp_dir ~prefix:"fxdurable-test" fill in
  check bool_t "removed after return" false (Sys.file_exists d1);
  let d2 = ref "" in
  (try
     Durable.with_temp_dir ~prefix:"fxdurable-test" (fun dir ->
         d2 := fill dir;
         failwith "boom")
   with Failure _ -> ());
  check bool_t "a fresh name each time" true (!d2 <> d1);
  check bool_t "removed after raise" false (Sys.file_exists !d2)

(* --- one record of each store ------------------------------------------- *)

(* A real evaluation, so wave records carry a full metrics block. *)
let wave =
  lazy
    (let w = Sweep.Workload.fir ~n:64 () in
     let inst = w.Sweep.Workload.make_instance () in
     let cand id f =
       Sweep.Candidate.of_uniform ~id ~specs:w.Sweep.Workload.specs ~f
         ~stim_seed:id
     in
     let c0 = cand 0 6 and c1 = cand 1 9 in
     inst.Sweep.Workload.set_seed 0;
     let m =
       Refine.Eval.evaluate ~assigns:(Sweep.Candidate.to_dtypes c0)
         ~probe:w.Sweep.Workload.probe inst.Sweep.Workload.design
     in
     (c0, c1, m))

(* How each store writes one record carrying [payload], and how it must
   react once that record's file is damaged: a cache entry is a counted
   miss and deleted, a wave is "not journaled", an intent is
   quarantined rather than pending. *)
type store = {
  write : string -> string -> string;  (** [write dir payload] → the file *)
  heals : string -> string -> bool;  (** [heals dir path] after damage *)
}

let cache_store =
  {
    write =
      (fun dir payload ->
        Serve.Cache.insert (Serve.Cache.create ~dir ()) "fuzz" payload;
        Filename.concat dir "fuzz.entry");
    heals =
      (fun dir path ->
        let c = Serve.Cache.create ~dir () in
        Serve.Cache.lookup c "fuzz" = None
        && (not (Sys.file_exists path))
        && (Serve.Cache.stats c).Serve.Cache.corrupt = 1);
  }

let wave_store =
  {
    write =
      (fun dir payload ->
        let c0, c1, m = Lazy.force wave in
        let cp = Sweep.Checkpoint.create ~dir ~key:"fuzz" () in
        Sweep.Checkpoint.record cp ~wave:1
          [ (c0, Ok m); (c1, Error (payload, 1)) ];
        Filename.concat (Sweep.Checkpoint.dir cp) "wave-000001.wv");
    heals =
      (fun dir _ ->
        let c0, c1, _ = Lazy.force wave in
        let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:"fuzz" () in
        Sweep.Checkpoint.waves cp = 0
        && Sweep.Checkpoint.lookup cp ~wave:1 [ c0; c1 ] = None);
  }

let intent_store =
  {
    write =
      (fun dir payload ->
        let line =
          Serve.Wire.to_line
            [ ("op", Serve.Wire.String "sweep"); ("id", Serve.Wire.String payload) ]
        in
        Serve.Journal.record_intent
          (Serve.Journal.create ~dir)
          { Serve.Journal.name = "fuzz"; attempts = 1; line };
        Filename.concat dir "job-fuzz.intent");
    heals =
      (fun dir _ ->
        let j = Serve.Journal.create ~dir in
        Serve.Journal.pending j = [] && Serve.Journal.quarantined j = [ "fuzz" ]);
  }

(* Fuzz the torn-write/bit-rot surface of every store: write a record,
   truncate, flip or extend its file at a random offset, reopen — the
   store must treat the record as absent (never a crash, never damaged
   data served or re-run).  The CRC frame catches every single-byte
   flip, so this holds for each draw, not just most. *)
let prop_torn_record_heals =
  QCheck2.Test.make
    ~name:"torn/corrupted records always heal (cache, wave, intent)"
    ~count:150
    QCheck2.Gen.(
      quad (int_range 0 2)
        (string_size (int_range 0 64))
        (int_range 0 2)
        (pair nat (int_range 1 255)))
    (fun (kind, payload, mode, (off, x)) ->
      Durable.with_temp_dir ~prefix:"fxdurable-test" @@ fun dir ->
      let store = List.nth [ cache_store; wave_store; intent_store ] kind in
      let path = store.write dir payload in
      let raw = Durable.read_file path in
      let len = String.length raw in
      overwrite path
        (match mode with
        | 0 -> String.sub raw 0 (off mod len) (* truncate: strictly shorter *)
        | 1 ->
            (* same-length byte flip at a random offset; x <> 0 *)
            let b = Bytes.of_string raw in
            let i = off mod len in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
            Bytes.to_string b
        | _ -> raw ^ String.make (1 + (off mod 7)) 'Z' (* trailing garbage *));
      store.heals dir path)

let suite =
  ( "durable",
    [
      Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
      Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
      Alcotest.test_case "temp dir removed" `Quick test_temp_dir_removed;
      Test_support.Qseed.to_alcotest prop_torn_record_heals;
    ] )
