#include "sim/json.hh"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "sim/logging.hh"

namespace snf
{

void
JsonWriter::separate()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (levels.empty())
        return;
    Level &l = levels.back();
    if (l.inlined)
        os << (l.empty ? "" : ", ");
    else
        os << (l.empty ? "\n" : ",\n")
           << std::string(2 * levels.size(), ' ');
    l.empty = false;
}

JsonWriter &
JsonWriter::open(char openCh, char closeCh, Layout layout)
{
    separate();
    bool inlined = layout == Layout::Inline ||
                   (!levels.empty() && levels.back().inlined);
    os << openCh;
    levels.push_back(Level{closeCh, inlined});
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    SNF_ASSERT(!levels.empty(), "end() without an open container");
    Level l = levels.back();
    levels.pop_back();
    if (!l.inlined && !l.empty)
        os << '\n' << std::string(2 * levels.size(), ' ');
    os << l.close;
    if (levels.empty())
        os << '\n';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    value(name);
    os << ": ";
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::scalar(std::string_view text)
{
    separate();
    os << text;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    os << '"';
    for (char c : s) {
        unsigned u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            os << '\\' << c;
        } else if (c == '\n') {
            os << "\\n";
        } else if (c == '\t') {
            os << "\\t";
        } else if (c == '\r') {
            os << "\\r";
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            os << buf;
        } else {
            os << c;
        }
    }
    os << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    return scalar(b ? "true" : "false");
}

JsonWriter &
JsonWriter::value(double d)
{
    separate();
    os << d;
    return *this;
}

JsonWriter &
JsonWriter::fixed(double d, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, d);
    return scalar(buf);
}

void
writeReport(const std::string &path,
            const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream f(path);
    if (!f)
        fatal("cannot write '%s'", path.c_str());
    write(f);
}

} // namespace snf
