#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    paragraph::fuzzing::check_fixed_decimal(data);
});
