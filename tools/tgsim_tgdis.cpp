// tgsim-tgdis — disassembles a TG .bin image back to .tgp text.
//
//   tgsim-tgdis program.bin [--out=program.tgp]
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim-tgdis",
                       "disassemble one TG .bin image into .tgp text",
                       "FILE.bin"};
    set.add({"out", cli::OptionSpec::Kind::Text, "FILE.tgp", "",
             "write the text here instead of stdout"});
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    if (args.positional().size() != 1) {
        options().print_help(stderr);
        return 1;
    }
    const tg::TgProgram prog =
        cli::disassemble_image("tgsim-tgdis", args.positional()[0]);
    const std::string text = tg::to_text(prog);
    if (args.has("out")) {
        cli::write_text_file(args.get("out"), text);
        std::printf("wrote %s (%zu instructions)\n", args.get("out").c_str(),
                    prog.instrs.size());
    } else {
        std::printf("%s", text.c_str());
    }
    return 0;
}
